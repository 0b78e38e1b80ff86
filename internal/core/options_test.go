package core

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"netupdate/internal/config"
)

// goldenBase is the four-switch diamond the golden digests below were
// computed over.
func goldenBase(t *testing.T) *config.StreamBase {
	t.Helper()
	const header = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`
	var h config.StreamHeader
	if err := json.Unmarshal([]byte(header), &h); err != nil {
		t.Fatal(err)
	}
	base, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// allOptionsSet is an Options with every field away from its default.
var allOptionsSet = Options{
	Checker: CheckerBatch, RuleGranularity: true, TwoSimple: true, NoWaitRemoval: true, NoDecomposition: true,
	Parallelism: 3, FirstPlanWins: true, NoCexLearning: true, NoEarlyTermination: true, NoHeuristicOrder: true,
	MinimizeCompletionTime: true, NoPlanCache: true, Trace: true, Timeout: 1500 * time.Nanosecond,
}

// TestContextFingerprintGolden pins contextFingerprint to the digests the
// hand-written version produced (computed at commit 9bc8855): the digest
// is embedded in NUSS images and keys -learn-file stores, so images and
// learn files written before the options were described by tags must
// still load.
func TestContextFingerprintGolden(t *testing.T) {
	base := goldenBase(t)
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{}, "b6a764ea9d7a3b683cdebce7e1fab7ef0308dffebdd0d19150c17f5c47c7c7bb"},
		{"every option set", allOptionsSet, "3ca94b6b2540db49731a3d7ad32c255c3607eff05cd1e34237c14275cf1ad4e9"},
	} {
		if got := hex.EncodeToString(contextFingerprint(base.Topo, base.Specs, c.opts)); got != c.want {
			t.Errorf("%s: contextFingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestOptionClassification: setting a plan-shaping option alone changes
// contextFingerprint, setting a speed-only one alone does not — and every
// Options field is in the table, so a new option cannot go unclassified.
func TestOptionClassification(t *testing.T) {
	shapesPlan := map[string]bool{
		"Checker": true, "RuleGranularity": true, "TwoSimple": true, "NoWaitRemoval": true,
		"NoDecomposition": true, "FirstPlanWins": true, "NoHeuristicOrder": true, "MinimizeCompletionTime": true,
		"Parallelism": false, "NoCexLearning": false, "NoEarlyTermination": false,
		"NoPlanCache": false, "Trace": false, "Timeout": false,
	}
	base := goldenBase(t)
	def := hex.EncodeToString(contextFingerprint(base.Topo, base.Specs, Options{}))
	seen := map[string]string{}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		shapes, ok := shapesPlan[name]
		if !ok {
			t.Errorf("Options.%s: not in the plan-shaping/speed-only table", name)
			continue
		}
		var opts Options
		switch f := reflect.ValueOf(&opts).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(1)
		}
		fp := hex.EncodeToString(contextFingerprint(base.Topo, base.Specs, opts))
		if changed := fp != def; changed != shapes {
			t.Errorf("Options.%s: fingerprint changed = %v, plan-shaping = %v", name, changed, shapes)
		}
		if other, dup := seen[fp]; dup && shapes {
			t.Errorf("Options.%s and Options.%s fingerprint identically", name, other)
		}
		seen[fp] = name
	}
}

// TestOptionsFlagsAndText: the flag set derived from the tags parses into
// the options, keeps the caller's defaults, and the checker's text form
// round-trips and rejects unknown names.
func TestOptionsFlagsAndText(t *testing.T) {
	opts := Options{Timeout: 10 * time.Minute}
	fs := flag.NewFlagSet("netupdate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts.RegisterFlags(fs)
	args := strings.Fields("-checker netplumber -rules -2simple -no-wait-removal -no-decompose -parallel 4 -first-plan -min-completion -no-plan-cache")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{
		Checker: CheckerNetPlumber, RuleGranularity: true, TwoSimple: true, NoWaitRemoval: true, NoDecomposition: true,
		Parallelism: 4, FirstPlanWins: true, MinimizeCompletionTime: true, NoPlanCache: true, Timeout: 10 * time.Minute,
	}
	if opts != want {
		t.Fatalf("parsed %+v, want %+v", opts, want)
	}
	if err := fs.Parse([]string{"-checker", "nope"}); err == nil {
		t.Fatal("unknown checker must be rejected")
	}
	for k := CheckerIncremental; k <= CheckerNetPlumber; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back CheckerKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Fatalf("checker %v: text %q parsed back as %v (%v)", k, text, back, err)
		}
	}
	if _, err := CheckerKind(99).MarshalText(); err == nil {
		t.Fatal("checker 99 has no name")
	}
}
