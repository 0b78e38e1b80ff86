package ltl

import (
	"strings"
	"testing"
)

// TestParseNestingCap: a formula nested MaxNesting levels deep parses, and
// its text parses again; one level more is an error that names the
// offset, whether the nesting is in the text (parentheses, prefix
// operators) or only in the formula built (a chain of binary operators).
// Without the cap, a text of 1<<24 negations ended the process with a
// stack overflow, which no recover catches.
func TestParseNestingCap(t *testing.T) {
	if _, err := Parse(strings.Repeat("!", 1<<24) + "true"); err == nil {
		t.Fatal("16 Mi negations parse")
	}
	chain := func(op string, n int) string { // n operators
		return strings.Repeat("sw=1 "+op+" ", n) + "sw=1"
	}
	for _, c := range []struct {
		name string
		text func(n int) string
	}{
		{"next", func(n int) string { return strings.Repeat("X ", n) + "true" }},
		{"eventually", func(n int) string { return strings.Repeat("F ", n) + "sw=1" }},
		{"negation", func(n int) string { return strings.Repeat("!", n) + "true" }},
		{"parentheses", func(n int) string { return strings.Repeat("(", n) + "true" + strings.Repeat(")", n) }},
		{"or", func(n int) string { return chain("|", n) }},
		{"until", func(n int) string { return chain("U", n) }},
		// a -> b is !a | b: the first arrow is two levels over its operand.
		{"implies", func(n int) string { return strings.Repeat("sw=1 -> ", n-1) + "sw=1" }},
	} {
		at := c.text(MaxNesting)
		f, err := Parse(at)
		if err != nil {
			t.Fatalf("%s: %d levels: %v", c.name, MaxNesting, err)
		}
		if g, err := Parse(f.String()); err != nil || g.String() != f.String() {
			t.Fatalf("%s: the text of a formula at the cap does not parse back: %v", c.name, err)
		}
		over := c.text(MaxNesting + 1)
		_, err = Parse(over)
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") || !strings.Contains(err.Error(), "at offset") {
			t.Fatalf("%s: %d levels: err = %v, want the nesting error with its offset", c.name, MaxNesting+1, err)
		}
	}
}

// FuzzParse: any input is an error or a formula whose text parses back to
// the same text — never a panic, never a stack overflow. The committed
// seeds (testdata/fuzz/FuzzParse) are the specifications the generators
// write, one per shape, and the README's and the examples'.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		g, err := Parse(s)
		if err != nil {
			return
		}
		text := g.String()
		h, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parses as %q, which does not parse: %v", s, text, err)
		}
		if again := h.String(); again != text {
			t.Fatalf("%q parses as %q, which parses as %q", s, text, again)
		}
	})
}
