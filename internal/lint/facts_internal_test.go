package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkSource type-checks one dependency-free source snippet and
// returns its package for object lookups.
func checkSource(t *testing.T, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestObjectKey(t *testing.T) {
	pkg := checkSource(t, `package p

var Global int

func TopLevel() {
	local := 0
	_ = local
}

type T struct{ Field int }

func (T) ValueMethod()    {}
func (*T) PointerMethod() {}

type I interface{ IfaceMethod() }
`)
	scope := pkg.Scope()
	lookup := func(name string) types.Object {
		obj := scope.Lookup(name)
		if obj == nil {
			t.Fatalf("no package-level object %q", name)
		}
		return obj
	}

	named := lookup("T").Type().(*types.Named)
	var valueMethod, pointerMethod types.Object
	for i := 0; i < named.NumMethods(); i++ {
		switch m := named.Method(i); m.Name() {
		case "ValueMethod":
			valueMethod = m
		case "PointerMethod":
			pointerMethod = m
		}
	}
	iface := lookup("I").Type().Underlying().(*types.Interface)
	ifaceMethod := iface.Method(0)
	topLevel := lookup("TopLevel").(*types.Func)
	local := topLevel.Scope().Lookup("local")
	if local == nil {
		t.Fatal("no local in TopLevel scope")
	}
	field := named.Underlying().(*types.Struct).Field(0)

	cases := []struct {
		label  string
		obj    types.Object
		want   string
		wantOK bool
	}{
		{"package var", lookup("Global"), "Global", true},
		{"package func", topLevel, "TopLevel", true},
		{"type name", lookup("T"), "T", true},
		{"value method", valueMethod, "T.ValueMethod", true},
		{"pointer method", pointerMethod, "T.PointerMethod", true},
		{"interface method", ifaceMethod, "", false},
		{"local var", local, "", false},
		{"struct field", field, "", false},
		{"nil object", nil, "", false},
	}
	for _, c := range cases {
		got, ok := ObjectKey(c.obj)
		if got != c.want || ok != c.wantOK {
			t.Errorf("ObjectKey(%s) = (%q, %v), want (%q, %v)", c.label, got, ok, c.want, c.wantOK)
		}
	}
}
