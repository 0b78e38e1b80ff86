// Command experiments regenerates the paper's evaluation (Section 6) at
// the paper's sizes, up to 1500 switches for Figure 8(g):
//
//	experiments -fig all         # the 15 tables, under a minute on 2 cores
//	experiments -fig 7           # Figure 7(a-c), one table per family
//	experiments -fig all -json   # the report committed as FIGURES.json
//
// -fig takes "all" or one name of the figures table below; -h lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"netupdate/internal/bench"
)

// timeout bounds one synthesis; no cell comes near it.
const timeout = 10 * time.Minute

var families = []bench.Family{bench.FamilyZoo, bench.FamilyFatTree, bench.FamilySmallWorld}

type figure struct {
	name string
	run  func() ([]*bench.Table, error)
}

// figures is every -fig name with the tables it prints, in the order
// "all" prints them.
var figures = []figure{
	{"2a", func() ([]*bench.Table, error) {
		t, err := bench.Fig2a()
		return tables(err, t)
	}},
	{"2b", func() ([]*bench.Table, error) {
		t, err := bench.Fig2b()
		return tables(err, t)
	}},
	{"7", func() ([]*bench.Table, error) {
		return perFamily(func(f bench.Family) (*bench.Table, error) {
			t, _, err := bench.Fig7(f, []int{100, 200, 400, 600},
				[]bench.Backend{bench.Incremental, bench.Batch, bench.NuSMVLike}, timeout)
			return t, err
		})
	}},
	{"7df", func() ([]*bench.Table, error) {
		return perFamily(func(f bench.Family) (*bench.Table, error) {
			t, _, err := bench.Fig7Rule(f, []int{100, 200, 400, 600}, timeout)
			return t, err
		})
	}},
	{"8g", func() ([]*bench.Table, error) {
		t, waits, err := bench.Fig8g([]int{200, 400, 800, 1200, 1500}, timeout)
		return tables(err, t, waits)
	}},
	{"8h", func() ([]*bench.Table, error) {
		t, err := bench.Fig8h([]int{200, 400, 800}, timeout)
		return tables(err, t)
	}},
	{"8i", func() ([]*bench.Table, error) {
		t, waits, err := bench.Fig8i([]int{200, 400, 800}, timeout)
		return tables(err, t, waits)
	}},
	{"checker", func() ([]*bench.Table, error) {
		t, err := bench.CheckerOnly(400)
		return tables(err, t)
	}},
	{"ablation", func() ([]*bench.Table, error) {
		t, err := bench.Ablation(300, timeout)
		return tables(err, t)
	}},
}

func tables(err error, ts ...*bench.Table) ([]*bench.Table, error) {
	if err != nil {
		return nil, err
	}
	return ts, nil
}

func perFamily(fig func(bench.Family) (*bench.Table, error)) ([]*bench.Table, error) {
	var out []*bench.Table
	for _, f := range families {
		t, err := fig(f)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// names lists what -fig accepts.
func names() string {
	var b strings.Builder
	for _, f := range figures {
		b.WriteString(f.name + "|")
	}
	return b.String() + "all"
}

// pick returns the figures -fig names: one of them, or all.
func pick(name string) ([]figure, error) {
	if name == "all" {
		return figures, nil
	}
	for _, f := range figures {
		if f.name == name {
			return []figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want %s)", name, names())
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: "+names())
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables (for run-over-run diffing)")
	)
	flag.Parse()
	picked, err := pick(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	var out []*bench.Table
	for _, f := range picked {
		ts, err := f.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -fig %s: %v\n", f.name, err)
			os.Exit(1)
		}
		out = append(out, ts...)
	}
	if *jsonOut {
		if err := bench.NewReport(out).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range out {
		fmt.Println(t.Format())
	}
}
