package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go command and returns each matched
// package parsed and type-checked against `go list -export` data, in
// dependency order (every package after all of its dependencies — the
// order `go list -deps` emits). Module packages that are dependencies
// of the matched set but not matched themselves are loaded too, marked
// DepOnly: the facts pass must see them for cross-package provenance
// even when the user asks for a subtree, but their diagnostics are not
// the user's to fix right now. Only non-test Go files are loaded — the
// determinism contracts govern what ships, and benchmarks/tests
// legitimately use wall time and ad hoc randomness.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && (!p.DepOnly || inModule(p.ImportPath)) {
			pkg := p
			targets = append(targets, &pkg)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = t.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{PkgPath: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Run loads patterns (relative to dir) and applies the analyzers,
// returning all surviving diagnostics in package order. A single facts
// store is threaded through every package in dependency order, so each
// package's facts are in the store before its importers are analyzed.
// Packages loaded only as dependencies contribute facts but no
// diagnostics.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	facts := NewFacts()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackageFacts(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if !pkg.DepOnly {
			diags = append(diags, ds...)
		}
	}
	return diags, nil
}
