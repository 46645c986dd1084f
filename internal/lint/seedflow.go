package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// SeedFlow is detrand's interprocedural counterpart. detrand leaves
// internal/rng as the only generator library code can build; seedflow
// proves every one of them is seeded from the run: each expression that
// positions a generator — the argument of rng.New, the State handed to
// (*rng.Rand).Restore, and any function whose summary says a parameter
// flows into one of those — must receive a value provenance-traceable to
// a run seed. Traceable means: a seed-named config field or package
// variable (the repo's convention for the run seed), a value derived
// from one by integer arithmetic or by a summarized mixer (rng.Derive),
// an rng.State literal whose Seed field is one, a draw from or the
// State of an already-seeded *rng.Rand, an int64 that a function named
// restore*/Restore* reads back from a snapshot ((*snapbin.Dec).I64:
// what a seeded run's State wrote; the analyzer cannot tell the seed
// from another int64 of the same blob, which is the hole that remains),
// or a call whose SeedSummary fact vouches for the result. A parameter
// is NOT traceable by itself: it turns into an obligation on the
// caller, exported as a fact, so the proof crosses package boundaries —
// rng.New's seed parameter obligates sched.New's, which obligates
// sim.NewMachine's caller, until a Seed field or a constant is reached.
// Constants seeding library RNGs are exactly the bug class the N+M
// differential harnesses cannot see.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "require every RNG seed expression in library code to be provenance-traceable to a run seed " +
		"(a Seed config field, rng.Derive mixing, a seeded generator or a snapshot), " +
		"propagating the obligation across package boundaries via facts",
	Appropriate: inLibrary,
	Run:         runSeedFlow,
}

// SeedSummaryFact is seedflow's per-function fact. ResultTraceable
// means every return path yields a run-seed-derived integer.
// ResultParams means the result is seed-derived iff at least one of the
// listed parameters receives a seed-derived argument (any-semantics:
// mixing one trusted seed with untrusted salt, DeriveSeed(base, i),
// still yields a derived seed). SinkGroups are the function's
// obligations: for each group, at least one of the listed parameters
// must receive a seed-derived argument, because inside the function the
// group's members meet an RNG seeding site.
type SeedSummaryFact struct {
	ResultTraceable bool
	ResultParams    []uint32
	SinkGroups      [][]uint32
}

func (*SeedSummaryFact) AFact() {}

func (f *SeedSummaryFact) trivial() bool {
	return !f.ResultTraceable && len(f.ResultParams) == 0 && len(f.SinkGroups) == 0
}

// equal reports whether two summaries say the same thing. Nil and empty
// slices are equal: a summary that flips between them has converged.
func (f *SeedSummaryFact) equal(o *SeedSummaryFact) bool {
	return f.ResultTraceable == o.ResultTraceable &&
		slices.Equal(f.ResultParams, o.ResultParams) &&
		slices.EqualFunc(f.SinkGroups, o.SinkGroups, slices.Equal[[]uint32])
}

// seedFixpointMax bounds the in-package summary iteration. The
// traceability lattice is finite and classification is monotone, so the
// fixpoint converges long before this; the cap only guards pathology.
const seedFixpointMax = 20

// seedCls classifies one integer expression's seed provenance.
// traceable: derived from a run seed. params: derived iff any listed
// parameter of the enclosing named function is. isConst: built from
// constants only — at a seeding site that is the "hard-coded seed"
// finding rather than the "cannot trace" one. None set: opaque.
type seedCls struct {
	traceable bool
	isConst   bool
	params    map[int]bool
}

// seedCombine merges the classifications of two subexpressions of one
// arithmetic expression: a mix is traceable if either input is
// (seed*prime + salt stays seed-derived), constant only if both are.
func seedCombine(a, b seedCls) seedCls {
	out := seedCls{
		traceable: a.traceable || b.traceable,
		isConst:   a.isConst && b.isConst,
	}
	for p := range a.params {
		out = out.withParam(p)
	}
	for p := range b.params {
		out = out.withParam(p)
	}
	return out
}

// seedAccum merges classifications of distinct assignments to one
// variable: any branch assigning a traceable value makes later reads
// potentially traceable, so everything unions (monotone, which the
// fixpoint needs).
func seedAccum(a, b seedCls) seedCls {
	out := seedCombine(a, b)
	out.isConst = a.isConst || b.isConst
	return out
}

func (c seedCls) withParam(p int) seedCls {
	if c.params == nil {
		c.params = make(map[int]bool)
	}
	c.params[p] = true
	return c
}

func (c seedCls) equal(o seedCls) bool {
	if c.traceable != o.traceable || c.isConst != o.isConst || len(c.params) != len(o.params) {
		return false
	}
	for p := range c.params {
		if !o.params[p] {
			return false
		}
	}
	return true
}

// isSeedName reports whether a field or package-variable name marks a
// run-seed carrier by the repo's naming convention (Seed, BaseSeed,
// seedOffset, ...).
func isSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

type seedFunc struct {
	obj  *types.Func
	decl *ast.FuncDecl
}

func runSeedFlow(pass *Pass) error {
	var fns []seedFunc
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, seedFunc{obj: obj, decl: fd})
		}
	}

	summaries := make(map[*types.Func]*SeedSummaryFact)
	for i := 0; i < seedFixpointMax; i++ {
		changed := false
		for _, fn := range fns {
			s := seedAnalyzeFunc(pass, fn, summaries, false)
			if prev := summaries[fn.obj]; prev == nil || !prev.equal(s) {
				summaries[fn.obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Reporting pass: summaries are stable, so a sink argument that is
	// neither traceable nor parameter-dependent now is a finding.
	for _, fn := range fns {
		seedAnalyzeFunc(pass, fn, summaries, true)
	}

	for _, fn := range fns {
		s := summaries[fn.obj]
		if s == nil || s.trivial() {
			continue
		}
		if _, ok := ObjectKey(fn.obj); !ok {
			continue
		}
		pass.ExportObjectFact(fn.obj, s)
	}
	return nil
}

// seedCtx is the per-function classification context.
type seedCtx struct {
	pass      *Pass
	restoring bool // the function is a restore*/Restore* one: snapshot reads are seeds
	summaries map[*types.Func]*SeedSummaryFact
	params    map[*types.Var]int
	closure   map[*types.Var]bool
	locals    map[*types.Var]seedCls
}

// seedAnalyzeFunc computes fn's summary, and when report is set also
// emits diagnostics for seeding sites whose argument is provably
// constant or untraceable.
func seedAnalyzeFunc(pass *Pass, fn seedFunc, summaries map[*types.Func]*SeedSummaryFact, report bool) *SeedSummaryFact {
	sig := fn.obj.Type().(*types.Signature)
	ctx := &seedCtx{
		pass:      pass,
		restoring: strings.HasPrefix(strings.ToLower(fn.obj.Name()), "restore"),
		summaries: summaries,
		params:    make(map[*types.Var]int),
		closure:   make(map[*types.Var]bool),
		locals:    make(map[*types.Var]seedCls),
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ctx.params[sig.Params().At(i)] = i
	}
	// Closure parameters are trusted: the repo's callback contracts
	// (sweep.Task, experiment runners) pass already-derived seeds into
	// closures, and the closure body has no caller to push an
	// obligation onto.
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					ctx.closure[v] = true
				}
			}
		}
		return true
	})

	// Local dataflow to fixpoint: assignment order in source need not
	// match def-use order (loops), and classify is monotone, so iterate.
	for i := 0; i < seedFixpointMax; i++ {
		if !ctx.propagateLocals(fn.decl.Body) {
			break
		}
	}

	sum := &SeedSummaryFact{}
	groups := make(map[string][]uint32)
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ctx.checkSink(call, sum, groups, report)
		return true
	})
	for _, key := range sortedGroupKeys(groups) {
		sum.SinkGroups = append(sum.SinkGroups, groups[key])
	}

	ctx.summarizeResult(fn, sig, sum)
	return sum
}

// propagateLocals records the classification of every local variable
// assignment, returning whether anything changed.
func (c *seedCtx) propagateLocals(body *ast.BlockStmt) bool {
	changed := false
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Parent() == nil || v.Parent() == c.pass.Pkg.Scope() {
			return // not a local (field, package var, blank)
		}
		if _, isParam := c.params[v]; isParam || c.closure[v] {
			return // reassigned parameters keep their parameter identity
		}
		nc := seedAccum(c.locals[v], c.classify(rhs))
		if !nc.equal(c.locals[v]) {
			c.locals[v] = nc
			changed = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true // tuple assignment from a call: opaque
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				}
			}
		}
		return true
	})
	return changed
}

// classify determines one expression's seed provenance.
func (c *seedCtx) classify(e ast.Expr) seedCls {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.classify(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB || e.Op == token.XOR {
			return c.classify(e.X)
		}
	case *ast.BinaryExpr:
		return seedCombine(c.classify(e.X), c.classify(e.Y))
	case *ast.BasicLit:
		return seedCls{isConst: true}
	case *ast.CompositeLit:
		return c.classifyStructLit(e)
	case *ast.Ident:
		return c.classifyObj(c.pass.TypesInfo.Uses[e])
	case *ast.SelectorExpr:
		if sel := c.pass.TypesInfo.Selections[e]; sel != nil {
			if sel.Kind() == types.FieldVal && isSeedName(e.Sel.Name) {
				return seedCls{traceable: true}
			}
			return seedCls{}
		}
		return c.classifyObj(c.pass.TypesInfo.Uses[e.Sel]) // qualified pkg.X
	case *ast.CallExpr:
		return c.classifyCall(e)
	}
	return seedCls{}
}

// classifyStructLit classifies a struct literal by what it stores in
// its seed-named fields (rng.State{Seed: s, Draws: n} carries s's
// provenance; the zero seed of an omitted field is a constant).
func (c *seedCtx) classifyStructLit(lit *ast.CompositeLit) seedCls {
	st, ok := c.pass.TypesInfo.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return seedCls{}
	}
	cls := seedCls{isConst: true}
	for i, elt := range lit.Elts {
		name, val := "", elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				name = id.Name
			}
			val = kv.Value
		} else if i < st.NumFields() {
			name = st.Field(i).Name()
		}
		if isSeedName(name) {
			cls = seedCombine(cls, c.classify(val))
		}
	}
	return cls
}

func (c *seedCtx) classifyObj(obj types.Object) seedCls {
	switch obj := obj.(type) {
	case *types.Const:
		return seedCls{isConst: true}
	case *types.Var:
		if i, ok := c.params[obj]; ok {
			return seedCls{}.withParam(i)
		}
		if c.closure[obj] {
			return seedCls{traceable: true}
		}
		if cl, ok := c.locals[obj]; ok {
			return cl
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && isSeedName(obj.Name()) {
			return seedCls{traceable: true}
		}
	}
	return seedCls{}
}

func (c *seedCtx) classifyCall(call *ast.CallExpr) seedCls {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.classify(call.Args[0]) // conversion, e.g. int64(x)
		}
		return seedCls{}
	}
	callee := calleeFuncOf(c.pass.TypesInfo, call.Fun)
	if callee == nil {
		return seedCls{}
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		// A draw from (or the State of) an already-seeded generator is
		// run-seed-derived by construction — the generator's own
		// seeding was checked at its seeding site — and so is the int64
		// a restore function reads back from a snapshot: a seeded run
		// wrote it.
		recv := sig.Recv().Type()
		if isNamedIn(recv, rngPath, "Rand") || c.restoring && callee.Name() == "I64" && isNamedIn(recv, snapbinPath, "Dec") {
			return seedCls{traceable: true}
		}
	}
	if s := c.summaryOf(callee); s != nil {
		if s.ResultTraceable {
			return seedCls{traceable: true}
		}
		if len(s.ResultParams) > 0 {
			cls := seedCls{isConst: true}
			any := false
			for _, pi := range s.ResultParams {
				if int(pi) >= len(call.Args) {
					continue
				}
				any = true
				cls = seedCombine(cls, c.classify(call.Args[pi]))
			}
			if any {
				return cls
			}
		}
	}
	return seedCls{}
}

// checkSink inspects one call for seeding obligations. Groups whose
// arguments depend on the enclosing function's parameters become that
// function's own SinkGroups; provably constant or opaque arguments are
// findings (reported only on the final pass).
func (c *seedCtx) checkSink(call *ast.CallExpr, sum *SeedSummaryFact, groups map[string][]uint32, report bool) {
	callee := calleeFuncOf(c.pass.TypesInfo, call.Fun)
	if callee == nil {
		return
	}
	for _, g := range c.sinkGroupsOf(callee) {
		cls := seedCls{isConst: true}
		any := false
		for _, pi := range g {
			if int(pi) >= len(call.Args) {
				continue
			}
			any = true
			cls = seedCombine(cls, c.classify(call.Args[pi]))
		}
		if !any || cls.traceable {
			continue
		}
		if len(cls.params) > 0 {
			addSinkGroup(groups, cls.params)
			continue
		}
		if !report {
			continue
		}
		pos := call.Pos()
		if int(g[0]) < len(call.Args) {
			pos = call.Args[g[0]].Pos()
		}
		if cls.isConst {
			c.pass.Reportf(pos, "%s is seeded with a constant; derive the seed from the run seed (a Seed config field or rng.Derive)", seedCalleeName(callee))
		} else {
			c.pass.Reportf(pos, "%s seed argument is not traceable to a run seed; thread it from the engine/sweep seed", seedCalleeName(callee))
		}
	}
}

// sinkGroupsOf returns the parameter groups of fn that must receive a
// run-seed-derived argument: the two primitive seeding sites — rng.New
// and (*rng.Rand).Restore, the only ways to position the only generator
// detrand lets library code have — plus whatever fn's own summary
// obligates.
func (c *seedCtx) sinkGroupsOf(fn *types.Func) [][]uint32 {
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == rngPath {
		if key, _ := ObjectKey(fn); key == "New" || key == "Rand.Restore" {
			return [][]uint32{{0}}
		}
	}
	if s := c.summaryOf(fn); s != nil {
		return s.SinkGroups
	}
	return nil
}

func (c *seedCtx) summaryOf(fn *types.Func) *SeedSummaryFact {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		var f SeedSummaryFact
		if c.pass.ImportObjectFact(fn, &f) {
			return &f
		}
	}
	return nil
}

// summarizeResult fills in ResultTraceable/ResultParams from the named
// function's return statements (closures' returns are their own).
func (c *seedCtx) summarizeResult(fn seedFunc, sig *types.Signature, sum *SeedSummaryFact) {
	var intPos []int
	for i := 0; i < sig.Results().Len(); i++ {
		if b, ok := sig.Results().At(i).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			intPos = append(intPos, i)
		}
	}
	if len(intPos) == 0 {
		return
	}
	var returns []*ast.ReturnStmt
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r)
		}
		return true
	})
	if len(returns) == 0 {
		return
	}
	allTraceable := true
	pset := make(map[int]bool)
	for _, r := range returns {
		if len(r.Results) != sig.Results().Len() {
			return // bare return or tuple-forwarding: opaque
		}
		rc := seedCls{isConst: true}
		for _, pi := range intPos {
			rc = seedCombine(rc, c.classify(r.Results[pi]))
		}
		if rc.traceable {
			continue
		}
		if len(rc.params) == 0 {
			return // one opaque/constant return path spoils the result
		}
		allTraceable = false
		for p := range rc.params {
			pset[p] = true
		}
	}
	if allTraceable {
		sum.ResultTraceable = true
		return
	}
	sum.ResultParams = sortedU32(pset)
}

// rngPath is the package holding the tree's one generator.
const rngPath = ModulePath + "/internal/rng"

// snapbinPath is the package holding the snapshot codec.
const snapbinPath = ModulePath + "/internal/snapbin"

// isNamedIn reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedIn(t types.Type, pkgPath, name string) bool {
	named, ok := namedOfRecv(t)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// calleeFuncOf resolves a call's callee to its *types.Func, or nil for
// indirect calls, builtins and conversions.
func calleeFuncOf(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func seedCalleeName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := namedOfRecv(sig.Recv().Type()); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func addSinkGroup(groups map[string][]uint32, params map[int]bool) {
	g := sortedU32(params)
	groups[fmt.Sprint(g)] = g
}

func sortedU32(set map[int]bool) []uint32 {
	out := make([]uint32, 0, len(set))
	for p := range set {
		out = append(out, uint32(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedGroupKeys(groups map[string][]uint32) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
