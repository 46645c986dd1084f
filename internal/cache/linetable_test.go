package cache

import (
	"math/rand"
	"testing"

	"threadcluster/internal/memory"
)

// TestLineTableMatchesMap drives seeded ensure/find/drop streams through a
// presence table that starts at the minimum size, against a Go map. The
// stream fills the table through four grows to just under 3/4 of 4096
// slots, then churns there — inserts, updates, drops of present and absent
// lines, finds — so backward-shift deletes run in the long clusters of
// the load the table grows at. After every operation the occupancy, the
// peak and the load bound must hold; every thousandth, every entry must
// be the map's.
func TestLineTableMatchesMap(t *testing.T) {
	const size, target = 4096, 3*4096/4 - 4
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := lineTable{slots: make([]lineSlot, lineTableMinSize), mask: lineTableMinSize - 1}
		model := map[memory.Addr]presEntry{}
		var present []memory.Addr // the model's lines, for seeded picks
		peak, grows := 0, 0
		check := func(step int) {
			t.Helper()
			seen := 0
			tab.forEach(func(line memory.Addr, e *presEntry) {
				seen++
				if want, ok := model[line]; !ok || *e != want {
					t.Fatalf("seed %d step %d: line %#x holds %+v, model %+v (present %v)", seed, step, uint64(line), *e, want, ok)
				}
			})
			if seen != len(model) {
				t.Fatalf("seed %d step %d: table visits %d lines, model holds %d", seed, step, seen, len(model))
			}
			for line, want := range model {
				if e := tab.find(line); e == nil || *e != want {
					t.Fatalf("seed %d step %d: find(%#x) = %v, want %+v", seed, step, uint64(line), e, want)
				}
			}
		}
		randomLine := func() memory.Addr { return memory.Addr(r.Intn(1<<20)) * memory.LineSize }
		for step := 0; step < 40000; step++ {
			op := r.Intn(8)
			if len(model) < target && (step < target || op < 3) {
				op = 0 // fill, then insert in 3/8 of the churn
			} else if op < 3 {
				op = 3 + r.Intn(5)
			}
			var line memory.Addr
			if len(present) > 0 && op%2 == 1 {
				line = present[r.Intn(len(present))]
			} else {
				line = randomLine()
			}
			switch op {
			case 0, 3: // insert or update
				before := len(tab.slots)
				e := tab.ensure(line)
				if len(tab.slots) != before {
					grows++
				}
				if _, ok := model[line]; !ok {
					present = append(present, line)
				}
				*e = presEntry{l2: r.Uint64() | 1, l3: r.Uint64()}
				model[line] = *e
			case 4, 7: // find
				want, ok := model[line]
				if e := tab.find(line); (e != nil) != ok || ok && *e != want {
					t.Fatalf("seed %d step %d: find(%#x) = %v, model %+v (present %v)", seed, step, uint64(line), e, want, ok)
				}
			default: // drop, of a present line on odd ops
				tab.drop(line)
				if _, ok := model[line]; ok {
					delete(model, line)
					for i, l := range present {
						if l == line {
							present[i] = present[len(present)-1]
							present = present[:len(present)-1]
							break
						}
					}
				}
			}
			peak = max(peak, len(model))
			if tab.n != len(model) || tab.peak != peak {
				t.Fatalf("seed %d step %d: n %d peak %d, model %d peak %d", seed, step, tab.n, tab.peak, len(model), peak)
			}
			if 4*tab.n > 3*len(tab.slots) {
				t.Fatalf("seed %d step %d: %d entries in %d slots, over 3/4 load", seed, step, tab.n, len(tab.slots))
			}
			if step%1000 == 0 {
				check(step)
			}
		}
		check(-1)
		if grows != 4 || len(tab.slots) != size {
			t.Fatalf("seed %d: %d grows to %d slots, want 4 to %d", seed, grows, len(tab.slots), size)
		}
		if 3*tab.n < 2*size {
			t.Fatalf("seed %d: the churn ended at %d/%d, not near 3/4 load", seed, tab.n, size)
		}
		tab.release()
	}
}
