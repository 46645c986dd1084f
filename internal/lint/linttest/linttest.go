// Package linttest is a miniature analysistest: it runs one analyzer
// over a golden package in testdata and diffs the diagnostics against
// `// want "regexp"` comments. A want comment names every diagnostic
// expected on its own line:
//
//	rand.Seed(1) // want `rand\.Seed`
//	x := f()     // want "first finding" "second finding"
//
// Both double-quoted and backquoted expectation strings are accepted;
// each is a regular expression matched against the diagnostic message.
// Lines without a want comment must produce no diagnostics.
//
// Golden packages are type-checked with the standard library's source
// importer plus a module-aware fallback: imports under the module path
// are parsed and type-checked from the real package directories at the
// repository root. Analyzer heuristics keyed to module types (the
// maporder metrics-registry rule) can therefore be exercised against
// the genuine article; everything else may still be declared locally.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"threadcluster/internal/lint"
)

// wantRe matches one expectation string: "..." or `...`.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run analyzes the golden package in dir as if its import path were
// asPath (scoping rules key off the path) and reports mismatches
// against the // want comments through t.
func Run(t *testing.T, a *lint.Analyzer, dir, asPath string) {
	t.Helper()
	RunWithDeps(t, a, nil, dir, asPath)
}

// Dep is one golden dependency package for RunWithDeps.
type Dep struct {
	Dir    string
	AsPath string
}

// RunWithDeps analyzes one or more golden dependency packages followed
// by the package under test, so a rule that reads an imported
// package's signatures (detrand's seed positions) is exercised against
// a dependency written for the test. Each dep is registered under its
// AsPath so the later packages can import it by that path, and its
// // want comments are checked too (a dep may carry its own expected
// diagnostics).
func RunWithDeps(t *testing.T, a *lint.Analyzer, deps []Dep, dir, asPath string) {
	t.Helper()
	fset := token.NewFileSet()
	im := newModuleImporter(t, fset)
	var diags []lint.Diagnostic
	var wants []want
	for _, dep := range append(append([]Dep(nil), deps...), Dep{Dir: dir, AsPath: asPath}) {
		ds, ws := analyze(t, a, dep.Dir, dep.AsPath, fset, im)
		diags = append(diags, ds...)
		wants = append(wants, ws...)
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func analyze(t *testing.T, a *lint.Analyzer, dir, asPath string, fset *token.FileSet, im *moduleImporter) ([]lint.Diagnostic, []want) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []*ast.File
	var wants []want
	for _, e := range entries {
		// Test files are skipped, as the driver skips them: a dep may be
		// a real package directory of the module.
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		files = append(files, f)
		ws, err := collectWants(fset, f, e.Name())
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		wants = append(wants, ws...)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	info := lint.NewTypesInfo()
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(asPath, fset, files, info)
	if err != nil {
		t.Fatalf("linttest: type-checking %s: %v", dir, err)
	}
	// Register the package so later golden packages in the same run can
	// import it by its declared path (shadowing any real module package).
	im.pkgs[asPath] = tpkg
	pkg := &lint.Package{PkgPath: asPath, Fset: fset, Files: files, Info: info}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	return diags, wants
}

// moduleImporter resolves imports under the module path by parsing and
// type-checking the real package directory at the repository root
// (memoized per run); everything else falls through to the standard
// source importer. Test files are skipped, matching the files tclint's
// loader hands the analyzers.
type moduleImporter struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	root string
	pkgs map[string]*types.Package
}

func newModuleImporter(t *testing.T, fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path != lint.ModulePath && !strings.HasPrefix(path, lint.ModulePath+"/") {
		return im.std.Import(path)
	}
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	if im.root == "" {
		root, err := moduleRoot()
		if err != nil {
			return nil, err
		}
		im.root = root
	}
	dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(path, lint.ModulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linttest: module import %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("linttest: module import %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: module import %s: no Go files in %s", path, dir)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("linttest: module import %s: %v", path, err)
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// moduleRoot walks up from the working directory (the package dir of the
// running test) to the directory holding go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("linttest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func collectWants(fset *token.FileSet, f *ast.File, base string) ([]want, error) {
	var wants []want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			specs := wantRe.FindAllString(text[len("want "):], -1)
			if len(specs) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", base, line, c.Text)
			}
			for _, spec := range specs {
				pat := spec[1 : len(spec)-1]
				if spec[0] == '"' {
					pat = strings.ReplaceAll(pat, `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", base, line, pat, err)
				}
				wants = append(wants, want{file: base, line: line, re: re})
			}
		}
	}
	return wants, nil
}
