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

// goldenHeader is the four-switch diamond the golden digests below (and
// the one-class snapshot seed of fuzz_test.go) were computed over.
const goldenHeader = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`

func goldenBase(t *testing.T) *config.StreamBase {
	t.Helper()
	var h config.StreamHeader
	if err := json.Unmarshal([]byte(goldenHeader), &h); err != nil {
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
	RuleGranularity: true, TwoSimple: true, NoWaitRemoval: true, NoDecomposition: true,
	Parallelism: 3, FirstPlanWins: true, NoCexLearning: true, NoEarlyTermination: true, NoHeuristicOrder: true,
	MinimizeCompletionTime: true, NoPlanCache: true, Trace: true, Timeout: 1500 * time.Nanosecond,
}

// TestContextFingerprintGolden pins contextFingerprint to the digests the
// hand-written version produced (the default at commit 9bc8855; every
// option set at 5a6acb0, the last commit with a checker knob, under its
// default checker): the digest is embedded in NUSS images and keys
// -learn-file stores, so images and learn files written before the
// options were described by tags, and before the checker kind became the
// constant 0, must still load.
func TestContextFingerprintGolden(t *testing.T) {
	base := goldenBase(t)
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{}, "b6a764ea9d7a3b683cdebce7e1fab7ef0308dffebdd0d19150c17f5c47c7c7bb"},
		{"every option set", allOptionsSet, "0a1c4293436f44df55ef28bf3eaa6be5472ca8bebffebac654bd556a091efe21"},
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
		"RuleGranularity": true, "TwoSimple": true, "NoWaitRemoval": true,
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
// the options and keeps the caller's defaults; the removed -checker flag
// is a usage error like any unknown flag.
func TestOptionsFlagsAndText(t *testing.T) {
	opts := Options{Timeout: 10 * time.Minute}
	fs := flag.NewFlagSet("netupdate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts.RegisterFlags(fs)
	args := strings.Fields("-rules -2simple -no-wait-removal -no-decompose -parallel 4 -first-plan -min-completion -no-plan-cache")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{
		RuleGranularity: true, TwoSimple: true, NoWaitRemoval: true, NoDecomposition: true,
		Parallelism: 4, FirstPlanWins: true, MinimizeCompletionTime: true, NoPlanCache: true, Timeout: 10 * time.Minute,
	}
	if opts != want {
		t.Fatalf("parsed %+v, want %+v", opts, want)
	}
	if err := fs.Parse([]string{"-checker", "incremental"}); err == nil {
		t.Fatal("-checker must be rejected")
	}
}
