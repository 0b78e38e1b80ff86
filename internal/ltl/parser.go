package ltl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a formula in the concrete syntax produced by
// (*Formula).String:
//
//	phi ::= phi '->' phi          (implication, right associative, lowest)
//	      | phi '|' phi           (disjunction)
//	      | phi '&' phi           (conjunction)
//	      | phi 'U' phi           (until, right associative)
//	      | phi 'R' phi           (release, right associative)
//	      | '!' phi | 'X' phi | 'F' phi | 'G' phi
//	      | 'true' | 'false'
//	      | ident '=' int | ident '!=' int
//	      | '(' phi ')'
//
// where ident names a state component ("sw", "pt", or a header field).
//
// A formula nested deeper than MaxNesting is an error naming the offset
// where the limit was passed: the text may not open more than MaxNesting
// parentheses and prefix operators at once, and the formula built may not
// have more than MaxNesting operators on a path from its root. Within
// both, the parser's recursion is bounded, and so is that of everything
// that walks the formula — and the String of a formula Parse returns
// parses again.
func Parse(input string) (*Formula, error) {
	p := &parser{input: input}
	p.next()
	n, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("ltl: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	return n.f, nil
}

// MaxNesting is the deepest formula Parse accepts (see Parse). The
// specifications the generators and examples write nest a few levels.
const MaxNesting = 1000

// MustParse is Parse but panics on error; for statically known formulas.
func MustParse(input string) *Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokLParen
	tokRParen
	tokNot    // !
	tokAnd    // &
	tokOr     // |
	tokEq     // =
	tokNeq    // !=
	tokArrow  // ->
	tokKwTrue // true
	tokKwFalse
	tokKwX
	tokKwF
	tokKwG
	tokKwU
	tokKwR
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	input string
	off   int
	tok   token
	// open counts the parentheses and prefix operators being parsed.
	open int
}

// node is a parsed subformula and its height: the operators on its
// longest path from the root.
type node struct {
	f *Formula
	h int
}

// errNesting reports a formula nested deeper than MaxNesting.
func (p *parser) errNesting(pos int) error {
	return fmt.Errorf("ltl: formula nested deeper than %d levels at offset %d", MaxNesting, pos)
}

// enter opens one level of the text's nesting at the current token.
func (p *parser) enter() error {
	if p.open++; p.open > MaxNesting {
		return p.errNesting(p.tok.pos)
	}
	return nil
}

// unary applies a one-operand constructor, whose result may fold to a
// constant or cancel a negation; pos is the operator's offset.
func (p *parser) unary(op func(*Formula) *Formula, x node, pos int) (node, error) {
	f := op(x.f)
	switch {
	case f.L == nil:
		return node{f, 0}, nil // folded to a constant
	case f == x.f.L:
		return node{f, x.h - 1}, nil // a cancelled double negation
	}
	return p.height(f, x.h+1, pos)
}

// binary applies a two-operand constructor, whose result may fold to a
// constant or to one of its operands; pos is the operator's offset.
func (p *parser) binary(op func(l, r *Formula) *Formula, l, r node, pos int) (node, error) {
	f := op(l.f, r.f)
	switch {
	case f == l.f:
		return l, nil
	case f == r.f:
		return r, nil
	case f.L == nil:
		return node{f, 0}, nil
	}
	return p.height(f, max(l.h, r.h)+1, pos)
}

func (p *parser) height(f *Formula, h, pos int) (node, error) {
	if h > MaxNesting {
		return node{}, p.errNesting(pos)
	}
	return node{f, h}, nil
}

func (p *parser) next() {
	for p.off < len(p.input) && unicode.IsSpace(rune(p.input[p.off])) {
		p.off++
	}
	start := p.off
	if p.off >= len(p.input) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.input[p.off]
	switch {
	case c == '(':
		p.off++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.off++
		p.tok = token{tokRParen, ")", start}
	case c == '&':
		p.off++
		if p.off < len(p.input) && p.input[p.off] == '&' {
			p.off++
		}
		p.tok = token{tokAnd, "&", start}
	case c == '|':
		p.off++
		if p.off < len(p.input) && p.input[p.off] == '|' {
			p.off++
		}
		p.tok = token{tokOr, "|", start}
	case c == '=':
		p.off++
		if p.off < len(p.input) && p.input[p.off] == '>' { // '=>' synonym for '->'
			p.off++
			p.tok = token{tokArrow, "=>", start}
			return
		}
		p.tok = token{tokEq, "=", start}
	case c == '!':
		p.off++
		if p.off < len(p.input) && p.input[p.off] == '=' {
			p.off++
			p.tok = token{tokNeq, "!=", start}
			return
		}
		p.tok = token{tokNot, "!", start}
	case c == '-':
		p.off++
		if p.off < len(p.input) && p.input[p.off] == '>' {
			p.off++
			p.tok = token{tokArrow, "->", start}
			return
		}
		p.tok = token{kind: tokEOF, text: "-", pos: start} // reported by caller
	case c >= '0' && c <= '9':
		for p.off < len(p.input) && p.input[p.off] >= '0' && p.input[p.off] <= '9' {
			p.off++
		}
		p.tok = token{tokInt, p.input[start:p.off], start}
	case isIdentStart(c):
		for p.off < len(p.input) && isIdentChar(p.input[p.off]) {
			p.off++
		}
		text := p.input[start:p.off]
		kind := tokIdent
		switch text {
		case "true":
			kind = tokKwTrue
		case "false":
			kind = tokKwFalse
		case "X":
			kind = tokKwX
		case "F":
			kind = tokKwF
		case "G":
			kind = tokKwG
		case "U":
			kind = tokKwU
		case "R":
			kind = tokKwR
		}
		p.tok = token{kind, text, start}
	default:
		p.tok = token{kind: tokEOF, text: string(c), pos: start}
		p.off++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// parseImplies parses a chain of implications, right associative: the
// operands are collected and then folded from the right, so a long chain
// costs no recursion.
func (p *parser) parseImplies() (node, error) {
	l, err := p.parseOr()
	if err != nil || p.tok.kind != tokArrow {
		return l, err
	}
	operands := []node{l}
	var ops []int // the arrows' offsets
	for p.tok.kind == tokArrow {
		ops = append(ops, p.tok.pos)
		p.next()
		r, err := p.parseOr()
		if err != nil {
			return node{}, err
		}
		operands = append(operands, r)
	}
	r := operands[len(operands)-1]
	for i := len(ops) - 1; i >= 0; i-- {
		neg, err := p.unary(Not, operands[i], ops[i])
		if err != nil {
			return node{}, err
		}
		if r, err = p.binary(Or, neg, r, ops[i]); err != nil {
			return node{}, err
		}
	}
	return r, nil
}

func (p *parser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return node{}, err
	}
	for p.tok.kind == tokOr {
		pos := p.tok.pos
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return node{}, err
		}
		if l, err = p.binary(Or, l, r, pos); err != nil {
			return node{}, err
		}
	}
	return l, nil
}

func (p *parser) parseAnd() (node, error) {
	l, err := p.parseTemporal()
	if err != nil {
		return node{}, err
	}
	for p.tok.kind == tokAnd {
		pos := p.tok.pos
		p.next()
		r, err := p.parseTemporal()
		if err != nil {
			return node{}, err
		}
		if l, err = p.binary(And, l, r, pos); err != nil {
			return node{}, err
		}
	}
	return l, nil
}

// parseTemporal parses a chain of U and R, right associative, folded from
// the right as parseImplies folds.
func (p *parser) parseTemporal() (node, error) {
	l, err := p.parseUnary()
	if err != nil || p.tok.kind != tokKwU && p.tok.kind != tokKwR {
		return l, err
	}
	operands := []node{l}
	var ops []token
	for p.tok.kind == tokKwU || p.tok.kind == tokKwR {
		ops = append(ops, p.tok)
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return node{}, err
		}
		operands = append(operands, r)
	}
	r := operands[len(operands)-1]
	for i := len(ops) - 1; i >= 0; i-- {
		op := Until
		if ops[i].kind == tokKwR {
			op = Release
		}
		if r, err = p.binary(op, operands[i], r, ops[i].pos); err != nil {
			return node{}, err
		}
	}
	return r, nil
}

func (p *parser) parseUnary() (node, error) {
	kind, pos := p.tok.kind, p.tok.pos
	switch kind {
	case tokNot, tokKwX, tokKwF, tokKwG:
	default:
		return p.parsePrimary()
	}
	if err := p.enter(); err != nil {
		return node{}, err
	}
	p.next()
	x, err := p.parseUnary()
	p.open--
	if err != nil {
		return node{}, err
	}
	switch kind {
	case tokNot:
		return p.unary(Not, x, pos)
	case tokKwX:
		return p.unary(Next, x, pos)
	case tokKwF: // true U x
		return p.binary(Until, node{True(), 0}, x, pos)
	default: // G x is false R x
		return p.binary(Release, node{False(), 0}, x, pos)
	}
}

func (p *parser) parsePrimary() (node, error) {
	switch p.tok.kind {
	case tokKwTrue:
		p.next()
		return node{True(), 0}, nil
	case tokKwFalse:
		p.next()
		return node{False(), 0}, nil
	case tokLParen:
		if err := p.enter(); err != nil {
			return node{}, err
		}
		p.next()
		n, err := p.parseImplies()
		p.open--
		if err != nil {
			return node{}, err
		}
		if p.tok.kind != tokRParen {
			return node{}, fmt.Errorf("ltl: expected ')' at offset %d, found %q", p.tok.pos, p.tok.text)
		}
		p.next()
		return n, nil
	case tokIdent:
		field := p.tok.text
		p.next()
		neq := false
		pos := p.tok.pos
		switch p.tok.kind {
		case tokEq:
		case tokNeq:
			neq = true
		default:
			return node{}, fmt.Errorf("ltl: expected '=' or '!=' after %q at offset %d", field, p.tok.pos)
		}
		p.next()
		if p.tok.kind != tokInt {
			return node{}, fmt.Errorf("ltl: expected integer at offset %d, found %q", p.tok.pos, p.tok.text)
		}
		v, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return node{}, fmt.Errorf("ltl: bad integer %q: %v", p.tok.text, err)
		}
		p.next()
		a := node{Atom(field, v), 0}
		if neq {
			return p.unary(Not, a, pos)
		}
		return a, nil
	}
	return node{}, fmt.Errorf("ltl: unexpected %q at offset %d", p.tok.text, p.tok.pos)
}

// FormatList renders a list of formulas one per line (for CLI output).
func FormatList(fs []*Formula) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
