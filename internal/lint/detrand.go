package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetRand owns the internal/rng contract in library code. First, it
// forbids math/rand and math/rand/v2 outright. Every stochastic component
// draws from an internal/rng generator seeded by rng.Derive from the
// engine or sweep seed (see DESIGN.md §6): that generator's state is the
// sixteen bytes a snapshot stores, while a math/rand source is either
// the process-global one — shared mutable state that makes two runs with
// the same seed diverge as soon as goroutine interleaving differs — or a
// private one no snapshot can capture. Banning the import covers both,
// under any alias or a dot import. Tests are not library code and stay
// free to use math/rand.
//
// Second, every seed traces to the run seed. rng.New is the only call
// that picks a generator's stream ((*rng.Rand).Restore refuses another
// seed's), so provenance is a local property of each call: an argument
// bound to an integer parameter whose name contains "seed" — rng.New,
// rng.Derive, sched.New, BuildWorkload — must be seed-derived. Parameter
// names come from the callee's signature, which export data keeps, so
// the rule crosses packages without facts; a function that forwards its
// own parameter to a seed position must name it seed…, which makes its
// callers' arguments seed positions in turn.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid importing math/rand and math/rand/v2 in library code, and require every argument " +
		"bound to a seed-named integer parameter to derive from a run seed",
	Appropriate: inLibrary,
	Run:         runDetRand,
}

// rngPath is the package holding the tree's one generator.
const rngPath = ModulePath + "/internal/rng"

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "math/rand" && path != "math/rand/v2") {
				continue
			}
			pass.Reportf(imp.Pos(), "%s imported in library code; draw from an internal/rng generator seeded with rng.Derive from the run seed", path)
		}
		// A seed argument already reported is not reported again for the
		// seed positions nested inside it.
		var reported []ast.Expr
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, r := range reported {
				if r.Pos() <= call.Pos() && call.End() <= r.End() {
					return true
				}
			}
			for _, arg := range seedArgs(pass.TypesInfo, call) {
				derived, constant := seedOrigin(pass.TypesInfo, arg)
				switch {
				case derived:
					continue
				case constant:
					pass.Reportf(arg.Pos(), "%s is seeded with a constant; derive the seed from the run seed (a Seed config field or rng.Derive)", calleeName(pass.TypesInfo, call.Fun))
				default:
					pass.Reportf(arg.Pos(), "%s seed argument is not traceable to a run seed; thread it from the engine/sweep seed", calleeName(pass.TypesInfo, call.Fun))
				}
				reported = append(reported, arg)
			}
			return true
		})
	}
	return nil
}

// isSeedName reports whether a name marks a run-seed carrier by the
// repo's convention (Seed, BaseSeed, seedOffset, ...).
func isSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// seedArgs returns call's arguments in seed positions: those bound to an
// integer parameter with a seed name.
func seedArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if tv, ok := info.Types[call.Fun]; !ok || tv.IsType() {
		return nil // conversion
	}
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		p := sig.Params().At(min(i, sig.Params().Len()-1))
		b, ok := p.Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 || !isSeedName(p.Name()) {
			continue
		}
		if _, tuple := info.TypeOf(arg).(*types.Tuple); !tuple {
			out = append(out, arg)
		}
	}
	return out
}

// seedOrigin classifies a seed argument. It is derived when a leaf is a
// seed-named variable, parameter or field, or a draw from a *rng.Rand,
// and reaches the argument through arithmetic, conversions or call
// arguments; it is constant when every leaf is a constant.
func seedOrigin(info *types.Info, e ast.Expr) (derived, constant bool) {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return false, true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return isSeedVar(info.Uses[e]), false
	case *ast.SelectorExpr:
		return isSeedVar(info.Uses[e.Sel]), false
	case *ast.UnaryExpr:
		return seedOrigin(info, e.X)
	case *ast.BinaryExpr:
		xd, xc := seedOrigin(info, e.X)
		yd, yc := seedOrigin(info, e.Y)
		return xd || yd, xc && yc
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && isRandMethod(info.Selections[sel]) {
			return true, false
		}
		constant = len(e.Args) > 0
		for _, arg := range e.Args {
			d, c := seedOrigin(info, arg)
			derived, constant = derived || d, constant && c
		}
		return derived, constant
	}
	return false, false
}

func isSeedVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && isSeedName(v.Name())
}

// isRandMethod reports whether sel selects a method of rng.Rand: a draw
// from a generator whose own seeding was checked where it was built.
func isRandMethod(sel *types.Selection) bool {
	if sel == nil || sel.Kind() != types.MethodVal {
		return false
	}
	named, ok := namedOfRecv(sel.Recv())
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == rngPath && named.Obj().Name() == "Rand"
}

// calleeName renders a call's callee the way diagnostics name it:
// pkg.F or pkg.T.M, or the expression itself for a function value.
func calleeName(info *types.Info, fun ast.Expr) string {
	var fn *types.Func
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return types.ExprString(fun)
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := namedOfRecv(recv.Type()); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}
