package lint

import (
	"reflect"
	"testing"
)

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
