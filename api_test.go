package netupdate

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the package's exported declarations")

// TestPublicAPIIsPinned lists the package's exported identifiers with
// their declarations (go/doc) and compares them with testdata/api.txt: a
// change to the public surface is a change to that file, made on purpose
// (go test -run TestPublicAPIIsPinned -update-api .).
func TestPublicAPIIsPinned(t *testing.T) {
	got := publicAPI(t)
	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the exported API differs from %s (rerun with -update-api to accept):\n%s", golden, lineDiff(string(want), got))
	}
}

// publicAPI renders one line per exported declaration, comments dropped,
// in go/doc's order: constants, variables, functions, then each type with
// its constructors and methods.
func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "netupdate")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	node := func(prefix string, n any) {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		out.WriteString(prefix + strings.Join(strings.Fields(b.String()), " ") + "\n")
	}
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !name.IsExported() {
						continue
					}
					line := kind + " " + name.Name
					if vs.Type != nil {
						line += " " + exprString(t, fset, vs.Type)
					}
					if i < len(vs.Values) {
						line += " = " + exprString(t, fset, vs.Values[i])
					}
					out.WriteString(line + "\n")
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body, f.Decl.Doc = nil, nil
			node("", f.Decl)
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, ty := range pkg.Types {
		for _, spec := range ty.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				out.WriteString("type " + ts.Name.Name + " struct\n")
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							out.WriteString("\t" + name.Name + " " + exprString(t, fset, f.Type) + "\n")
						}
					}
				}
				continue
			}
			eq := " "
			if ts.Assign.IsValid() {
				eq = " = "
			}
			out.WriteString("type " + ts.Name.Name + eq + exprString(t, fset, ts.Type) + "\n")
		}
		values("const", ty.Consts)
		values("var", ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	return out.String()
}

func exprString(t *testing.T, fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		t.Fatal(err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// lineDiff lists the lines only one side has, "-" for want's and "+" for
// got's.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			b.WriteString("- " + l + "\n")
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			b.WriteString("+ " + l + "\n")
			count[l]++
		}
	}
	return b.String()
}
