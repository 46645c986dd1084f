// Package lint is the project's static-analysis suite: five analyzers
// that enforce the determinism (seed provenance included), error-
// wrapping and context contracts the simulator's differential tests
// rely on dynamically.
// The sweep runner promises byte-identical results for any worker
// count and the coherence differential harness requires byte-identical
// AccessResults between broadcast and directory mode; a single stray
// wall-clock read, global math/rand call or unsorted map iteration in a
// result path silently voids both. These analyzers catch that class of
// regression at vet time instead of waiting for a differential test to
// flake.
//
// The package is deliberately built on the standard library's go/ast
// and go/types only (no golang.org/x/tools dependency), but mirrors the
// go/analysis Analyzer/Pass shape so the analyzers would port to a
// multichecker mechanically. One driver runs them: Run (used by
// `tclint ./...`) loads packages with Load, type-checking each against
// its imports' `go list -export` data, and analyzes each package on its
// own. There are no suppression comments: a finding is fixed or the
// analyzer is narrowed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the module the scoping rules below are written against.
const ModulePath = "threadcluster"

// An Analyzer is one named check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks port to a real
// multichecker without rewriting.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string

	// Appropriate reports whether the analyzer applies to the package
	// with the given import path. A nil Appropriate means every
	// package.
	Appropriate func(pkgPath string) bool

	// Run performs the check, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers read
// populated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// RunPackage applies every appropriate analyzer to pkg and returns its
// diagnostics sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Appropriate != nil && !a.Appropriate(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			TypesInfo: pkg.Info,
		}
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i].Pos, diags[j].Pos
		if di.Filename != dj.Filename {
			return di.Filename < dj.Filename
		}
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		return di.Column < dj.Column
	})
	return diags, nil
}

// All returns the full suite in stable order. Every analyzer judges a
// package from its own syntax and its imports' export data.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		Wallclock,
		MapOrder,
		ErrWrap,
		CtxPlumb,
	}
}

// inModule reports whether path is the root package or any package under
// the module (internal/..., cmd/..., examples/...).
func inModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// inLibrary reports whether path is "library code": the root package or
// anything under internal/. cmd/ and examples/ are front ends.
func inLibrary(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/internal/")
}

// pkgNameOf resolves sel's X to an imported package name, returning its
// import path, or "" if X is not a bare package qualifier.
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
