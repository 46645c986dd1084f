package lint

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"

	"threadcluster/internal/snapbin"
)

// This file is the facts layer: the mechanism that turns the suite from
// six intra-package checkers into an interprocedural one. An analyzer
// running on package P can attach a Fact to one of P's package-level
// objects (a function, method, type or variable); when the suite later
// analyzes a package that imports P, the same analyzer can look that
// fact up by object and act on it. Facts are how seedflow knows that
// sched.New's argument reaches rng.New while analyzing a package three
// import hops away, and how snapfields knows that cache.Hierarchy is a
// snapshotable component while analyzing sim.
//
// Two transports exist, one per driver, carrying byte-identical
// payloads:
//
//   - The standalone driver (tclint ./...) analyzes the whole module in
//     dependency order and threads a single in-memory *Facts through
//     every package.
//   - The unitchecker driver (go vet -vettool=) decodes the vetx files
//     go vet hands it for the package's dependencies, and encodes the
//     union of imported and newly exported facts to VetxOutput for its
//     dependents. go vet caches vetx files, so the encoding must be
//     deterministic: entries are sorted by (package, object, fact type)
//     and every payload is a canonical snapbin encoding — no gob, no
//     map-order hazards.
//
// Object naming deliberately avoids go/types object identity (the two
// drivers materialize different types.Object graphs for the same
// source): a fact is keyed by the object's package path plus a stable
// in-package key — "F" for a package-level function/var/type, "T.M" for
// a method. Anything else (locals, struct fields, interface methods) is
// not a fact target; analyzers encode such detail inside the fact
// payload instead (snapfields lists field names in its payload, for
// example).

// A Fact is one deterministic, serializable statement an analyzer makes
// about a package-level object. Implementations must be pointer types;
// the payload must round-trip exactly through EncodeFact/DecodeFact.
type Fact interface {
	// AFact marks the type as a fact (and pins the intended pointer
	// receiver shape).
	AFact()
	// EncodeFact appends the fact's canonical encoding. Implementations
	// must emit any set- or map-shaped payload in sorted order.
	EncodeFact(e *snapbin.Enc)
	// DecodeFact overwrites the fact from an encoding produced by
	// EncodeFact.
	DecodeFact(d *snapbin.Dec) error
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

// Facts is a store of encoded facts. One store serves a whole
// standalone run; the unitchecker builds one per package unit from the
// dependency vetx files. Payloads are kept encoded so both drivers see
// exactly the bytes that would cross the vetx boundary.
type Facts struct {
	m map[factKey][]byte
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey][]byte)} }

// Len returns the number of facts in the store.
func (f *Facts) Len() int { return len(f.m) }

func (f *Facts) put(key factKey, payload []byte) {
	f.m[key] = payload
}

func (f *Facts) get(key factKey) ([]byte, bool) {
	b, ok := f.m[key]
	return b, ok
}

// Merge copies every fact in src into f.
func (f *Facts) Merge(src *Facts) {
	for k, v := range src.m {
		f.m[k] = v
	}
}

// factsMagic opens every encoded facts blob, versioned separately from
// the machine-snapshot encoding it borrows its style from.
const factsMagic = "tclint-facts"

// factsVersion is the current facts encoding version. A vetx file
// written by a different tclint build is rejected — go vet fingerprints
// the tool binary (PrintVersion) and invalidates cached vetx on any
// change, so a version mismatch only ever means foreign bytes.
const factsVersion = 1

// Encode renders the store in canonical form: magic, version, and every
// fact sorted by (package, object, fact type).
func (f *Facts) Encode() []byte {
	keys := make([]factKey, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.object != b.object {
			return a.object < b.object
		}
		return a.typ < b.typ
	})
	e := &snapbin.Enc{}
	e.Str(factsMagic)
	e.U16(factsVersion)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k.pkg)
		e.Str(k.object)
		e.Str(k.typ)
		e.Blob(f.m[k])
	}
	return e.Bytes()
}

// DecodeFacts parses an Encode blob and merges its facts into the
// store. Empty input is an empty store (the pre-facts suite wrote
// zero-byte vetx files; go vet may still hold cached ones).
func (f *Facts) DecodeFacts(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	d := snapbin.NewDec(data)
	if magic := d.Str(); d.Err() == nil && magic != factsMagic {
		return fmt.Errorf("lint: facts blob has magic %q: %w", magic, snapbin.ErrCorrupt)
	}
	if v := d.U16(); d.Err() == nil && v != factsVersion {
		return fmt.Errorf("lint: facts blob version %d, this build reads %d: %w", v, factsVersion, snapbin.ErrCorrupt)
	}
	n := d.Count(4)
	for i := 0; i < n && d.Err() == nil; i++ {
		key := factKey{pkg: d.Str(), object: d.Str(), typ: d.Str()}
		payload := d.Blob()
		if d.Err() == nil {
			// Copy: Blob aliases the input buffer.
			f.m[key] = append([]byte(nil), payload...)
		}
	}
	return d.Close()
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis. Facts on objects outside the current package
// would be invisible to the unitchecker driver (each unit writes only
// its own vetx), so exporting one is a programming error.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("lint: %s: ExportObjectFact on object %v outside package %s", p.Analyzer.Name, obj, p.PkgPath))
	}
	key, ok := ObjectKey(obj)
	if !ok {
		panic(fmt.Sprintf("lint: %s: object %v has no stable fact key", p.Analyzer.Name, obj))
	}
	e := &snapbin.Enc{}
	fact.EncodeFact(e)
	p.facts.put(factKey{pkg: p.PkgPath, object: key, typ: factName(fact)}, e.Bytes())
}

// ImportObjectFact decodes the fact of fact's concrete type attached to
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
	payload, found := p.facts.get(factKey{pkg: obj.Pkg().Path(), object: key, typ: factName(fact)})
	if !found {
		return false
	}
	d := snapbin.NewDec(payload)
	if err := fact.DecodeFact(d); err != nil {
		// A payload this build's encoder produced always decodes; foreign
		// bytes were rejected wholesale by DecodeFacts' version check.
		panic(fmt.Sprintf("lint: fact %s on %s.%s does not decode: %v", factName(fact), obj.Pkg().Path(), key, err))
	}
	if err := d.Close(); err != nil {
		panic(fmt.Sprintf("lint: fact %s on %s.%s has trailing bytes: %v", factName(fact), obj.Pkg().Path(), key, err))
	}
	return true
}
