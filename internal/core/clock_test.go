package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneClockPerPhase pins where the session and the engine read the
// clock: a phase is timed by its span (obs.Trace.Start and Phase.End),
// so no non-test file of either package calls time.Now, time.Since or
// time.Until, except SynthesizeWith, whose one-shot Elapsed also covers
// the session's construction.
func TestOneClockPerPhase(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	for _, dir := range []string{".", "../engine"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			timePkg := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
					timePkg = "time"
					if imp.Name != nil {
						timePkg = imp.Name.Name
					}
				}
			}
			if timePkg == "" {
				continue
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != timePkg {
						return true
					}
					switch sel.Sel.Name {
					case "Now", "Since", "Until":
					default:
						return true
					}
					if fn != nil && fn.Recv == nil && fn.Name.Name == "SynthesizeWith" && dir == "." {
						return true
					}
					sites = append(sites, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
					return true
				})
			}
		}
	}
	if len(sites) > 0 {
		t.Fatalf("clock read outside a phase:\n%s", strings.Join(sites, "\n"))
	}
}
