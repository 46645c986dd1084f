package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gridFlagNames are the nine flags BindGridFlags owns.
var gridFlagNames = []string{
	"spec", "workloads", "policies", "topos", "seed",
	"warm", "engine", "measure", "coherence",
}

// flagRegistrations returns the names registered on a flag set (or the
// flag package) anywhere under n: calls like fs.String("name", ...) or
// fs.StringVar(&v, "name", ...).
func flagRegistrations(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "String", "Int", "Int64", "Bool", "Duration", "Float64", "Uint", "Uint64":
		case "StringVar", "IntVar", "Int64Var", "BoolVar", "DurationVar", "Float64Var", "UintVar", "Uint64Var", "Var":
			arg = 1
		default:
			return true
		}
		if len(call.Args) <= arg+1 { // name plus at least a usage string
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

// parseProduct parses the non-test Go files of one directory.
func parseProduct(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			files[path] = f
		}
	}
	return files
}

// isSel reports whether e is the qualified identifier pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// TestGridsComeThroughTheBinder fails if the flags -> JobSpec -> grid
// path grows a second copy: the nine grid flags are registered once, in
// BindGridFlags; the grid front ends register none of the grid-only
// names themselves; and no command outside the benchmark builds a
// GridSpec or JobSpec literal or declares a JobSpec to decode a spec
// file into.
func TestGridsComeThroughTheBinder(t *testing.T) {
	for path, file := range parseProduct(t, ".") {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			got := flagRegistrations(fn)
			if fn.Name.Name == "BindGridFlags" {
				if strings.Join(got, ",") != strings.Join(gridFlagNames, ",") {
					t.Errorf("BindGridFlags registers %v, want exactly %v", got, gridFlagNames)
				}
			} else if len(got) > 0 {
				t.Errorf("%s: %s registers flags %v; grid flags belong in BindGridFlags", path, fn.Name.Name, got)
			}
		}
	}

	// -seed, -engine, -coherence ... also name single-machine knobs of
	// `tcsim -exp` and `tcsim snapshot`; these four only ever mean a grid.
	gridOnly := map[string]bool{"spec": true, "workloads": true, "policies": true, "topos": true}
	for _, dir := range []string{"../../cmd/tcsim", "../../cmd/tcfleet"} {
		for path, file := range parseProduct(t, dir) {
			for _, name := range flagRegistrations(file) {
				if gridOnly[name] {
					t.Errorf("%s registers -%s itself; bind server.BindGridFlags instead", path, name)
				}
			}
		}
	}

	cmds, err := filepath.Glob("../../cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		if filepath.Base(dir) == "tcbench" { // the benchmark states its grids as data
			continue
		}
		for path, file := range parseProduct(t, dir) {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isSel(n.Type, "experiments", "GridSpec") || isSel(n.Type, "server", "JobSpec") {
						t.Errorf("%s builds a grid literal; go through BindGridFlags -> Normalize -> Grid", path)
					}
				case *ast.ValueSpec:
					if n.Type != nil && isSel(n.Type, "server", "JobSpec") {
						t.Errorf("%s declares a server.JobSpec (a spec-file reader?); GridFlags.Spec reads spec files", path)
					}
				}
				return true
			})
		}
	}
}
