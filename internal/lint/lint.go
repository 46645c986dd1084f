// Package lint is the project's static-analysis suite: seven analyzers
// that enforce the determinism (seed provenance included), error-
// wrapping, context, deprecation-hygiene and snapshot-coverage
// contracts the simulator's differential tests rely on dynamically.
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
// `go list -export` data, and analyzes them in dependency order.
//
// Suppression: a `//tclint:allow <name>[,<name>...] -- <reason>` comment
// on the offending line, or on the line directly above it, silences the
// named analyzers for that line. When RequireAllowReason is set (tclint
// sets it; the golden-test harness does not), a suppression without a
// `-- reason` is itself a diagnostic: the repo's own tree must justify
// every allowance.
//
// The interprocedural analyzer, snapfields, additionally exchanges
// Facts across package boundaries; see facts.go.
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

// A Pass carries one analyzer's view of one type-checked package, plus
// the facts store shared across the whole run (ExportObjectFact /
// ImportObjectFact in facts.go).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	facts  Facts
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
// DepOnly marks packages loaded only because a target depends on them:
// they are analyzed for the facts they export, but their diagnostics
// are withheld.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	DepOnly bool
}

// NewTypesInfo returns a types.Info with every map the analyzers read
// populated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RequireAllowReason makes a `//tclint:allow` comment without a
// `-- reason` justification a diagnostic in its own right. tclint sets
// it (every suppression surviving in the repo tree must explain
// itself); the linttest golden harness leaves it unset so golden
// packages can exercise the bare-comment parse path.
var RequireAllowReason bool

// RunPackageFacts applies every appropriate analyzer to pkg, importing
// facts from and exporting facts to the given store, and returns the
// surviving (non-suppressed) diagnostics sorted by position. For fact
// flow to be complete, packages must be analyzed in dependency order
// against the same store.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, facts Facts) ([]Diagnostic, error) {
	suppressions, bare := collectSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	if RequireAllowReason {
		for _, pos := range bare {
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "allowreason",
				Message:  "//tclint:allow without a '-- reason' justification; explain why the finding is acceptable",
			})
		}
	}
	for _, a := range analyzers {
		if a.Appropriate != nil && !a.Appropriate(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     facts,
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
// alongside the index, the positions of bare allows — suppressions with
// no '-- reason' justification — for RequireAllowReason enforcement.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []token.Position) {
	idx := make(suppressionIndex)
	var bare []token.Position
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if reason == "" {
					bare = append(bare, pos)
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
	return idx, bare
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

// All returns the full suite in stable order. The first six are
// package-local; snapfields is interprocedural and needs facts from the
// package's dependencies to be complete.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		Wallclock,
		MapOrder,
		ErrWrap,
		CtxPlumb,
		NoDeprecated,
		SnapFields,
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
