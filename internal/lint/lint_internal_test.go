package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
	}{
		{"//tclint:allow wallclock", []string{"wallclock"}, ""},
		{"//tclint:allow wallclock -- progress output", []string{"wallclock"}, "progress output"},
		{"//tclint:allow detrand,maporder -- two at once", []string{"detrand", "maporder"}, "two at once"},
		{"//tclint:allow detrand maporder", []string{"detrand", "maporder"}, ""},
		{"//tclint:allow\tdetrand,\twallclock -- tab separators", []string{"detrand", "wallclock"}, "tab separators"},
		{"//tclint:allow * -- blanket", []string{"*"}, "blanket"},
		{"//tclint:allow errwrap --", []string{"errwrap"}, ""},    // empty reason is a bare allow
		{"//tclint:allow errwrap --   ", []string{"errwrap"}, ""}, // whitespace-only reason too
		{"//tclint:allow", nil, ""},            // no names, not a suppression
		{"//tclint:allowed nothing", nil, ""},  // different directive
		{"// tclint:allow wallclock", nil, ""}, // the directive admits no space, like //go:
		{"// ordinary comment", nil, ""},
	}
	for _, c := range cases {
		names, reason, ok := parseAllow(c.text)
		if ok != (len(c.names) > 0) || (ok && !reflect.DeepEqual(names, c.names)) || reason != c.reason {
			t.Errorf("parseAllow(%q) = %v, %q, %v; want %v, %q", c.text, names, reason, ok, c.names, c.reason)
		}
	}
}

// TestSuppressionIndex exercises placement semantics on parsed source:
// a comment covers its own line (trailing) and the line below
// (line-above), names are per-analyzer, and * is a wildcard.
func TestSuppressionIndex(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //tclint:allow detrand -- trailing placement
	//tclint:allow wallclock -- line-above placement
	_ = 2
	//tclint:allow * -- wildcard
	_ = 3
	_ = 4 //tclint:allow detrand,maporder -- multi-name
	//tclint:allowed near-miss is not a directive
	_ = 5
	_ = 6 //tclint:allow errwrap
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx, findings := collectSuppressions(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "detrand", true},     // trailing: own line
		{5, "detrand", true},     // trailing comments also cover the next line
		{3, "detrand", false},    // but never the line above themselves
		{5, "wallclock", true},   // line-above: own line
		{6, "wallclock", true},   // line-above: covered line
		{6, "detrand", false},    // names are per-analyzer
		{8, "detrand", true},     // * allows anything
		{8, "anything", true},    // * allows anything
		{9, "detrand", true},     // multi-name list, first
		{9, "maporder", true},    // multi-name list, second
		{9, "errwrap", false},    // multi-name list excludes others
		{10, "near", false},      // //tclint:allowed is not ours
		{11, "near", false},      // and covers nothing below either
		{12, "errwrap", true},    // bare allows still suppress...
		{11, "wallclock", false}, // unrelated line
	}
	for _, c := range cases {
		if got := idx.allows("p.go", c.line, c.analyzer); got != c.want {
			t.Errorf("allows(p.go, %d, %q) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
	// ...but are reported.
	if len(findings) != 1 || findings[0].Pos.Line != 12 || findings[0].Analyzer != "allowreason" {
		t.Errorf("findings = %v, want exactly one allowreason at line 12", findings)
	}
}

// TestAllStable: the suite's composition and order is part of its
// public face (docs, CI output); pin it.
func TestAllStable(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	want := []string{"detrand", "wallclock", "maporder", "errwrap", "ctxplumb"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("All() = %v, want %v", names, want)
	}
}
