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
	NoPlanCache: true, Trace: true, Timeout: 1500 * time.Nanosecond,
}

// TestContextFingerprintGolden pins ContextFingerprint to the digests of
// commit b2c7ecd, the last with the intra-component worker pool and its
// two options (the default is unchanged since the hand-written version of
// 9bc8855): the digest is embedded in NUSS images and keys -learn-file
// stores, so everything written before the worker count (speed-only,
// never in the digest) and the first-plan-wins tie-break (plan bit 5,
// which no stored digest of a default tenant had set) were deleted must
// still load. One row per plan bit still in use, so a renumbered or
// reused bit fails by name. "every option set" is the digest of bits 0-3
// alone: the heuristic-order switch (bit 4) and the completion-time
// tie-break (bit 6) have left Options since.
func TestContextFingerprintGolden(t *testing.T) {
	base := goldenBase(t)
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{}, "b6a764ea9d7a3b683cdebce7e1fab7ef0308dffebdd0d19150c17f5c47c7c7bb"},
		{"bit 0", Options{RuleGranularity: true}, "70f163ffa1143a871a8258c7611ef04b583dce39c2b05ae5875ea5a4b2deec44"},
		{"bit 1", Options{TwoSimple: true}, "0a0bc668078bc20dd5ac89ced214de15ff643c931a0e48ad24a59ee2183a59d9"},
		{"bit 2", Options{NoWaitRemoval: true}, "c6f399fb99727dff3f774713683ce976b767af65957be97bdf2ddb684269dfc0"},
		{"bit 3", Options{NoDecomposition: true}, "7fd61c55e7eff402142f8722c66279658c9ccc565c6c04b41bf5aa87cdfb6c60"},
		{"every option set", allOptionsSet, "88bcfc051eb95b02d4324670a16ff6649e751ec6424c8b5a7cd25c623c29af99"},
	} {
		if got := hex.EncodeToString(ContextFingerprint(base.Topo, base.Specs, c.opts)); got != c.want {
			t.Errorf("%s: ContextFingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestOptionClassification: setting a plan-shaping option alone changes
// ContextFingerprint, setting a speed-only one alone does not — and every
// Options field is in the table, so a new option cannot go unclassified.
func TestOptionClassification(t *testing.T) {
	shapesPlan := map[string]bool{
		"RuleGranularity": true, "TwoSimple": true, "NoWaitRemoval": true, "NoDecomposition": true,
		"NoPlanCache": false, "Trace": false, "Timeout": false,
	}
	base := goldenBase(t)
	def := hex.EncodeToString(ContextFingerprint(base.Topo, base.Specs, Options{}))
	seen := map[string]string{}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		shapes, ok := shapesPlan[name]
		if !ok {
			t.Errorf("Options.%s: not in the plan-shaping/speed-only table", name)
			continue
		}
		if plan := typ.Field(i).Tag.Get("plan"); plan == "4" || plan == "5" || plan == "6" {
			t.Errorf("Options.%s takes plan bit %s, which is retired (options.go)", name, plan)
		}
		var opts Options
		switch f := reflect.ValueOf(&opts).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(1)
		}
		fp := hex.EncodeToString(ContextFingerprint(base.Topo, base.Specs, opts))
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
// the options and keeps the caller's defaults; the removed -checker,
// -parallel and -first-plan flags are usage errors like any unknown flag,
// and the error names the flag.
func TestOptionsFlagsAndText(t *testing.T) {
	opts := Options{Timeout: 10 * time.Minute}
	fs := flag.NewFlagSet("netupdate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts.RegisterFlags(fs)
	args := strings.Fields("-rules -2simple -no-wait-removal -no-decompose -no-plan-cache")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{
		RuleGranularity: true, TwoSimple: true, NoWaitRemoval: true, NoDecomposition: true,
		NoPlanCache: true, Timeout: 10 * time.Minute,
	}
	if opts != want {
		t.Fatalf("parsed %+v, want %+v", opts, want)
	}
	for _, removed := range [][]string{{"-checker", "incremental"}, {"-parallel", "4"}, {"-first-plan"}, {"-min-completion"}} {
		if err := fs.Parse(removed); err == nil || !strings.Contains(err.Error(), removed[0]) {
			t.Fatalf("%v: err = %v, want a usage error naming the flag", removed, err)
		}
	}
}
