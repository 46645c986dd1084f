package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// SnapFields guards the snapshot contract: PR 6's N+M identity test
// proves a restored machine replays byte-identically only if every
// mutable field actually rides in the snapshot. The drift that breaks
// it is silent — add a field to a component, forget its snapshot
// section, and every existing test still passes until a restore
// diverges a release later. Two checks close that hole:
//
//  1. In-package: a state provider (a type with SaveState(*snapbin.Enc)
//     + RestoreState(*snapbin.Dec), or the value-state State() T +
//     Restore(T) pair) must mention every non-func field of its struct
//     in at least one of those two methods. A field neither saved nor
//     restored is either dead weight or missing state; the author
//     decides with an //tclint:allow.
//
//  2. Cross-package, via facts: a provider's type carries a
//     SnapFieldsFact, marking it snapshotable. Any struct whose state
//     code serializes at least one snapshotable component (calls its
//     SaveState/State/... through a field) must serialize all of its
//     snapshotable-typed fields — sim.Machine saving sched and cache
//     but not a newly added pmu slice is exactly the drift.
var SnapFields = &Analyzer{
	Name: "snapfields",
	Doc: "require state-provider types to serialize every mutable field, and containers that " +
		"snapshot one snapshotable component to snapshot all of them (facts mark provider " +
		"types across package boundaries)",
	Appropriate: inLibrary,
	Run:         runSnapFields,
}

// SnapFieldsFact marks a type as snapshotable and records which of its
// fields its own state methods touch. Attached to the type's TypeName.
type SnapFieldsFact struct {
	Saved []string
}

func (*SnapFieldsFact) AFact() {}

// snapVerbs are the method names through which one component serializes
// another. Seeing `x.f.SaveState(...)` (called or passed as a method
// value) counts field f as snapshotted by x's state code.
var snapVerbs = map[string]bool{
	"SaveState":     true,
	"RestoreState":  true,
	"SnapshotState": true,
	"State":         true,
	"Restore":       true,
}

// stateFuncNames are function names that, beyond any function touching
// *snapbin.Enc/Dec, count as state code for the cross-package check.
var stateFuncNames = map[string]bool{
	"SaveState":       true,
	"RestoreState":    true,
	"SnapshotState":   true,
	"RestoreSnapshot": true,
	"Snapshot":        true,
	"State":           true,
	"Restore":         true,
}

func runSnapFields(pass *Pass) error {
	structs := packageStructs(pass)

	// fieldOwner maps every struct field back to its named type so
	// serialization verbs can be attributed no matter where they occur.
	fieldOwner := make(map[*types.Var]*types.Named)
	for _, s := range structs {
		st := s.named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fieldOwner[st.Field(i)] = s.named
		}
	}

	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	// Check 1: providers must mention every non-func field in their
	// state methods. reported tracks findings so check 2 does not
	// repeat them.
	providers := make(map[*types.Named]bool)
	reported := make(map[*types.Var]bool)
	for _, s := range structs {
		save, restore := stateMethodsOf(pass, s.named)
		if save == nil || restore == nil {
			continue
		}
		providers[s.named] = true
		referenced := make(map[*types.Var]bool)
		for _, m := range []*types.Func{save, restore} {
			if decl := decls[m]; decl != nil {
				markFieldRefs(pass, decl, s.named, referenced)
			}
		}
		st := s.named.Underlying().(*types.Struct)
		var saved []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if referenced[f] {
				saved = append(saved, f.Name())
				continue
			}
			if _, isFunc := f.Type().Underlying().(*types.Signature); isFunc {
				continue // closures are never serialized by contract
			}
			reported[f] = true
			pass.Reportf(f.Pos(), "field %s of state provider %s appears in neither %s nor %s; serialize it or justify the omission",
				f.Name(), s.named.Obj().Name(), save.Name(), restore.Name())
		}
		sort.Strings(saved)
		pass.ExportObjectFact(s.named.Obj(), &SnapFieldsFact{Saved: saved})
	}

	// Check 2: state code that serializes one snapshotable field must
	// serialize all of them. Serialization marks are collected package-
	// wide from every state function (methods and free helpers alike),
	// attributed to the field's owning type.
	snapshotable := func(n *types.Named) bool {
		if providers[n] {
			return true
		}
		if n.Obj().Pkg() == nil || n.Obj().Pkg() == pass.Pkg {
			return false
		}
		var f SnapFieldsFact
		return pass.ImportObjectFact(n.Obj(), &f)
	}
	marked := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isStateFunc(pass, fd) {
				continue
			}
			markSnapVerbs(pass, fd, fieldOwner, marked)
		}
	}
	for _, s := range structs {
		st := s.named.Underlying().(*types.Struct)
		var snapFields []*types.Var
		anyMarked := false
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			comp := componentNamed(f.Type())
			if comp == nil || !snapshotable(comp) {
				continue
			}
			snapFields = append(snapFields, f)
			if marked[f] {
				anyMarked = true
			}
		}
		if !anyMarked {
			continue
		}
		for _, f := range snapFields {
			if marked[f] || reported[f] {
				continue
			}
			pass.Reportf(f.Pos(), "%s serializes some snapshotable components but never field %s (%s); snapshot section drift — serialize it or justify the omission",
				s.named.Obj().Name(), f.Name(), componentNamed(f.Type()).Obj().Name())
		}
	}
	return nil
}

type namedStruct struct {
	named *types.Named
}

// packageStructs returns the package-scope struct types in declaration
// (scope-name) order.
func packageStructs(pass *Pass) []namedStruct {
	var out []namedStruct
	scope := pass.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		out = append(out, namedStruct{named: named})
	}
	return out
}

// stateMethodsOf detects the provider shape on a named type: the
// snapbin pair SaveState(*Enc)/RestoreState(*Dec), or the value-state
// pair State() T / Restore(T).
func stateMethodsOf(pass *Pass, named *types.Named) (save, restore *types.Func) {
	method := func(name string) *types.Func {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
		return nil
	}
	save, restore = method("SaveState"), method("RestoreState")
	if save != nil && restore != nil &&
		hasSnapbinParam(save, "Enc") && hasSnapbinParam(restore, "Dec") {
		return save, restore
	}
	st, rst := method("State"), method("Restore")
	if st != nil && rst != nil {
		ssig := st.Type().(*types.Signature)
		rsig := rst.Type().(*types.Signature)
		if ssig.Params().Len() == 0 && ssig.Results().Len() == 1 &&
			rsig.Params().Len() == 1 &&
			types.Identical(ssig.Results().At(0).Type(), rsig.Params().At(0).Type()) {
			return st, rst
		}
	}
	return nil, nil
}

func hasSnapbinParam(fn *types.Func, typeName string) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isSnapbinType(sig.Params().At(i).Type(), typeName) {
			return true
		}
	}
	return false
}

func isSnapbinType(t types.Type, typeName string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == ModulePath+"/internal/snapbin" && named.Obj().Name() == typeName
}

// isStateFunc reports whether a function participates in snapshot
// serialization: it handles a snapbin encoder/decoder, or bears a
// snapshot-verb name.
func isStateFunc(pass *Pass, fd *ast.FuncDecl) bool {
	if stateFuncNames[fd.Name.Name] {
		return true
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isSnapbinType(sig.Params().At(i).Type(), "Enc") || isSnapbinType(sig.Params().At(i).Type(), "Dec") {
			return true
		}
	}
	return false
}

// markFieldRefs marks every field of owner that decl's body mentions.
func markFieldRefs(pass *Pass, decl *ast.FuncDecl, owner *types.Named, out map[*types.Var]bool) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		if f, ok := s.Obj().(*types.Var); ok {
			st := owner.Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					out[f] = true
				}
			}
		}
		return true
	})
}

// markSnapVerbs finds every `<field-expr>.Verb` method selection in fd
// and marks the underlying struct field as serialized. The field
// expression may be indexed, parenthesized, dereferenced, or an alias
// established by `x := s.field` / `for _, x := range s.field`.
func markSnapVerbs(pass *Pass, fd *ast.FuncDecl, fieldOwner map[*types.Var]*types.Named, marked map[*types.Var]bool) {
	// Alias pass: locals bound to a field (or an element of one).
	alias := make(map[*types.Var]*types.Var) // local -> field
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := peelToSelector(e); ok {
			if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok && fieldOwner[f] != nil {
					return f
				}
			}
		}
		return nil
	}
	resolve := func(e ast.Expr) *types.Var {
		if f := fieldOf(e); f != nil {
			return f
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				return alias[v]
			}
		}
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					if f := fieldOf(n.X); f != nil {
						alias[v] = f
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					if f := fieldOf(n.Rhs[i]); f != nil {
						alias[v] = f
					}
				}
			}
		}
		return true
	})
	// Verb pass: any method selection named like a snapshot verb whose
	// receiver expression resolves to a struct field.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !snapVerbs[sel.Sel.Name] {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s == nil || s.Kind() == types.FieldVal {
			return true // qualified ident or a field that merely shares a verb name
		}
		if f := resolve(sel.X); f != nil {
			marked[f] = true
		}
		return true
	})
}

// peelToSelector strips index, paren, star and address-of layers off an
// expression, reporting the selector underneath, if any.
func peelToSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x, true
		default:
			return nil, false
		}
	}
}

// componentNamed unwraps pointers, slices, arrays and map values to the
// named type a field stores, if any.
func componentNamed(t types.Type) *types.Named {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
