package lint

import (
	"fmt"
	"go/types"
	"reflect"
)

// This file is the facts layer: the mechanism that lets an analyzer see
// across package boundaries what export data does not carry. An analyzer
// running on package P can attach a Fact to one of P's package-level
// objects (a function, method, type or variable); when the suite later
// analyzes a package that imports P, the same analyzer can look that
// fact up by object and act on it. Its one client is snapfields: facts
// are how it knows that cache.Hierarchy is a snapshotable component
// while analyzing sim.
//
// The driver analyzes packages in dependency order and threads one
// in-memory store through all of them, so a package's facts are in the
// store before any importer of it is analyzed.
//
// Facts are not keyed by go/types object identity: the driver
// type-checks each package from source against its imports' export
// data, so the exporting package and an importing one hold different
// types.Object values for the same declaration. A fact is keyed by the
// object's package path plus a stable in-package key — "F" for a
// package-level function/var/type, "T.M" for a method. Anything else
// (locals, struct fields, interface methods) is not a fact target;
// analyzers carry such detail inside the fact instead (snapfields lists
// field names in its fact, for example).

// A Fact is one statement an analyzer makes about a package-level
// object. Implementations must be pointers to structs. A fact is
// immutable once exported: the store keeps the exported value and
// importers receive shallow copies of it.
type Fact interface {
	// AFact marks the type as a fact (and pins the intended pointer
	// receiver shape).
	AFact()
}

// factName returns the registry name of a fact's concrete type.
func factName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("lint: fact %T must be a pointer type", f))
	}
	return t.Elem().Name()
}

// ObjectKey returns the stable in-package key facts are filed under, or
// ok=false for objects facts cannot attach to (locals, fields,
// interface methods).
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, isFunc := obj.(*types.Func); isFunc {
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			named, ptrOK := namedOfRecv(recv.Type())
			if !ptrOK {
				return "", false
			}
			// A named interface's methods carry it as receiver too, but
			// they have no single implementation to attach facts to.
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// namedOfRecv unwraps a method receiver type (T or *T) to its named
// type. Interface receivers have no stable key and report false.
func namedOfRecv(t types.Type) (*types.Named, bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	return n, isNamed
}

// factKey identifies one fact instance globally.
type factKey struct {
	pkg    string // package import path
	object string // ObjectKey within the package
	typ    string // factName of the concrete fact type
}

// Facts is the store one run threads through every package.
type Facts map[factKey]Fact

// NewFacts returns an empty store.
func NewFacts() Facts { return make(Facts) }

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis: a package's facts are complete once it has
// been analyzed, so a later package adding to them is a programming
// error.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("lint: %s: ExportObjectFact on object %v outside package %s", p.Analyzer.Name, obj, p.PkgPath))
	}
	key, ok := ObjectKey(obj)
	if !ok {
		panic(fmt.Sprintf("lint: %s: object %v has no stable fact key", p.Analyzer.Name, obj))
	}
	p.facts[factKey{pkg: p.PkgPath, object: key, typ: factName(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type attached to
// obj — by this or any previously analyzed package — into fact,
// reporting whether one existed. obj may come from any package.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	stored, found := p.facts[factKey{pkg: obj.Pkg().Path(), object: key, typ: factName(fact)}]
	if !found {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
