// Package lint is the project's static-analysis suite: five analyzers
// that enforce the determinism (seed provenance included), error-
// wrapping and context contracts the simulator's differential tests
// rely on dynamically.
// The sweep runner promises byte-identical results for any worker
// count and the coherence differential harness requires byte-identical
// AccessResults between broadcast and directory mode; a single stray
// time.Now, global math/rand call or unsorted map iteration in a result
// path silently voids both. These analyzers catch that class of regression at vet
// time instead of waiting for a differential test to flake.
//
// The package is deliberately built on the standard library's go/ast
// and go/types only (no golang.org/x/tools dependency), but mirrors the
// go/analysis Analyzer/Pass shape so the analyzers would port to a
// multichecker mechanically. One driver runs them: Run (used by
// `tclint ./...`) loads packages with Load, type-checking each against
// its imports' `go list -export` data, and analyzes each package on its
// own.
//
// Suppression: a `//tclint:allow <name>[,<name>...] -- <reason>` comment
// on the offending line, or on the line directly above it, silences the
// named analyzers for that line. A suppression without a `-- reason` is
// itself a diagnostic, since every allowance must justify itself, and so
// is one naming no analyzer of All(), which is what deleting an analyzer
// leaves behind.
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

// allowPrefix is the magic comment that suppresses a diagnostic.
const allowPrefix = "//tclint:allow"

// An Analyzer is one named check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks port to a real
// multichecker without rewriting.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //tclint:allow comments.
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

// RunPackage applies every appropriate analyzer to pkg and returns the
// surviving (non-suppressed) diagnostics, plus the findings about the
// suppressions themselves, sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	suppressions, diags := collectSuppressions(pkg.Fset, pkg.Files)
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
		pass.report = func(d Diagnostic) {
			if suppressions.allows(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
				return
			}
			diags = append(diags, d)
		}
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

// suppressionIndex maps file -> line -> set of analyzer names allowed on
// that line. An //tclint:allow comment covers its own line and the line
// below it, so it works both as a trailing comment and on its own line
// above the finding.
type suppressionIndex map[string]map[int]map[string]bool

func (s suppressionIndex) allows(file string, line int, analyzer string) bool {
	lines := s[file]
	if lines == nil {
		return false
	}
	return lines[line][analyzer] || lines[line]["*"]
}

// collectSuppressions indexes every //tclint:allow comment and returns,
// alongside the index, the comments' own findings under the
// "allowreason" name, which no comment can suppress: every allow with no
// '-- reason' justification and every name that is no analyzer of All().
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []Diagnostic) {
	known := map[string]bool{"*": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	idx := make(suppressionIndex)
	var findings []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		findings = append(findings, Diagnostic{Pos: pos, Analyzer: "allowreason", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if reason == "" {
					report(pos, "//tclint:allow without a '-- reason' justification; explain why the finding is acceptable")
				}
				for _, n := range names {
					if !known[n] {
						report(pos, "//tclint:allow names %q, which is not a tclint analyzer; remove the stale name", n)
					}
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, target := range []int{pos.Line, pos.Line + 1} {
					set := lines[target]
					if set == nil {
						set = make(map[string]bool)
						lines[target] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return idx, findings
}

// parseAllow extracts the analyzer names and the justification from an
// //tclint:allow comment. The justification is the trimmed text after
// "--"; an absent or empty one comes back as "".
func parseAllow(text string) (names []string, reason string, ok bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	rest := text[len(allowPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false // e.g. //tclint:allowed — not ours
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		reason = strings.TrimSpace(rest[i+len("--"):])
		rest = rest[:i]
	}
	for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	}) {
		names = append(names, field)
	}
	return names, reason, len(names) > 0
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
