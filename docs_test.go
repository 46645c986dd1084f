package threadcluster_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose commands and paths a reader copies.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"}

var (
	// goRunRe matches the package argument of `go run ./dir` and of the
	// Makefile's `$(GO) run ./dir`.
	goRunRe = regexp.MustCompile(`(?:\bgo|\$\(GO\)) run (\./[A-Za-z0-9_./-]+)`)
	// docPathRe matches a backticked path under cmd/ or examples/, up to
	// the first character that cannot be part of it.
	docPathRe = regexp.MustCompile("`((?:cmd|examples)/[A-Za-z0-9_./-]*)")
)

// TestDocsNameRealPrograms: every `go run ./…` in the docs and the
// Makefile names a directory holding a main package, and every
// backticked cmd/… or examples/… path in them exists, so deleting a
// program cannot leave a command behind that no longer runs.
func TestDocsNameRealPrograms(t *testing.T) {
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRunRe.FindAllStringSubmatch(string(text), -1) {
			if !isMainPackage(t, m[1]) {
				t.Errorf("%s: `go run %s` names no main package", doc, m[1])
			}
		}
		for _, m := range docPathRe.FindAllStringSubmatch(string(text), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s: `%s` does not exist", doc, m[1])
			}
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file of package
// main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if ast.Name.Name == "main" {
			return true
		}
	}
	return false
}
