package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"threadcluster/internal/rng"
)

// The universe random snapshots draw their series from. "a", "a_b" and
// "a{...}" interleave in key order ('_' < '{'), so the merge-joins meet
// names that are prefixes of other names.
var (
	propNames  = []string{"a", "a_b", "b", "zz"}
	propLabels = []Labels{nil, {"src": "x"}, {"src": "y"}, {"src": "x", "t": "1"}}
	propValues = []float64{0, 0.5, -1.25, 1e-7, 3, 1e21}
)

// propCoverage counts the situations the property test must reach.
type propCoverage struct {
	overlap, disjoint, conflict, bucketMismatch, missingFromPrev, underflow, nilInput, emptyInput int
}

// randomSnapshot draws a key-ordered snapshot: each series of the
// universe is present with probability density. Each series has a home
// kind, which one draw in eight breaks (a kind conflict between
// snapshots); histogram bucket lengths vary, and counts are small, so
// Delta underflows often. Keys are carried, left to key() or rebuilt by
// a JSON round trip, at random.
func randomSnapshot(t *testing.T, r *rng.Rand, cov *propCoverage) Snapshot {
	density := []float64{0, 0.3, 0.7, 1}[r.Intn(4)]
	var s Snapshot
	if density == 0 {
		if r.Intn(2) == 0 {
			s.Samples = []Sample{}
			cov.emptyInput++
		} else {
			cov.nilInput++
		}
		return s
	}
	for ni, name := range propNames {
		for li, labels := range propLabels {
			if r.Float64() >= density {
				continue
			}
			kind := Kind((ni + li) % 3)
			if r.Intn(8) == 0 {
				kind = Kind((int(kind) + 1 + r.Intn(2)) % 3)
			}
			smp := Sample{Name: name, Labels: labels.clone(), Kind: kind}
			switch kind {
			case KindCounter:
				smp.Count = uint64(r.Intn(20))
				if r.Intn(10) == 0 {
					smp.Count = math.MaxUint64 - uint64(r.Intn(5))
				}
			case KindGauge:
				smp.Value = propValues[r.Intn(len(propValues))]
			case KindHistogram:
				smp.Count, smp.Sum = uint64(r.Intn(20)), uint64(r.Intn(100))
				nb := 1 + r.Intn(3)
				for i := range nb {
					smp.Bounds = append(smp.Bounds, uint64(10*(i+1)))
				}
				nb += r.Intn(2) // one bucket longer than the bounds, half the time
				for range nb {
					smp.Buckets = append(smp.Buckets, uint64(r.Intn(10)))
				}
			}
			s.Samples = append(s.Samples, smp)
		}
	}
	sort.Slice(s.Samples, func(i, j int) bool { return refKey(s.Samples[i]) < refKey(s.Samples[j]) })
	switch r.Intn(3) {
	case 0: // keys computed on use
	case 1:
		for i := range s.Samples {
			s.Samples[i].skey = refKey(s.Samples[i])
		}
	case 2:
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s = Snapshot{}
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// notePair records which situations the pair (cur, prev) exercises.
func (cov *propCoverage) notePair(cur, prev Snapshot) {
	byKey := make(map[string]Sample, len(prev.Samples))
	for _, p := range prev.Samples {
		byKey[refKey(p)] = p
	}
	shared := 0
	for _, c := range cur.Samples {
		p, ok := byKey[refKey(c)]
		if !ok {
			cov.missingFromPrev++
			continue
		}
		shared++
		switch {
		case p.Kind != c.Kind:
			cov.conflict++
		case c.Kind == KindCounter && p.Count > c.Count:
			cov.underflow++
		case c.Kind == KindHistogram && len(p.Buckets) != len(c.Buckets):
			cov.bucketMismatch++
		}
	}
	if len(cur.Samples) > 0 && len(prev.Samples) > 0 {
		if shared == 0 {
			cov.disjoint++
		} else {
			cov.overlap++
		}
	}
}

func mustJSON(t *testing.T, s Snapshot) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkKeyed requires s's samples to ascend strictly by key and to carry
// their keys.
func checkKeyed(t *testing.T, what string, s Snapshot) {
	t.Helper()
	for i := range s.Samples {
		smp := &s.Samples[i]
		if smp.skey != refKey(*smp) {
			t.Fatalf("%s: sample %d carries key %q, want %q", what, i, smp.skey, refKey(*smp))
		}
		if i > 0 && s.Samples[i-1].skey >= smp.skey {
			t.Fatalf("%s: samples %d and %d out of key order", what, i-1, i)
		}
	}
}

// TestMergeJoinsMatchReference pins Delta, Merge and MergeAll to the
// map-based versions they replaced (mergeref_test.go), compared as JSON,
// over seeded random snapshots. Inputs must be left untouched, since
// results share label maps and slices with them.
func TestMergeJoinsMatchReference(t *testing.T) {
	r := rng.New(20070321)
	var cov propCoverage
	for trial := range 3000 {
		a, b := randomSnapshot(t, r, &cov), randomSnapshot(t, r, &cov)
		cov.notePair(a, b)
		aJSON, bJSON := mustJSON(t, a), mustJSON(t, b)

		if got, want := mustJSON(t, a.Delta(b)), mustJSON(t, refDelta(a, b)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Delta\n got %s\nwant %s\n cur %s\nprev %s", trial, got, want, aJSON, bJSON)
		}
		checkKeyed(t, "Delta", a.Delta(b))
		if got, want := mustJSON(t, a.Merge(b)), mustJSON(t, refMerge(a, b)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Merge\n got %s\nwant %s\n   s %s\n   o %s", trial, got, want, aJSON, bJSON)
		}
		checkKeyed(t, "Merge", a.Merge(b))

		// Accumulate is Merge in place, and leaves a clone taken before
		// it alone.
		var acc Snapshot
		acc.Accumulate(a)
		held, heldJSON := acc.Clone(), mustJSON(t, acc)
		acc.Accumulate(b)
		if got, want := mustJSON(t, acc), mustJSON(t, Snapshot{}.Merge(a).Merge(b)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Accumulate\n got %s\nwant %s\n   s %s\n   o %s", trial, got, want, aJSON, bJSON)
		}
		checkKeyed(t, "Accumulate", acc)
		if !bytes.Equal(mustJSON(t, held), heldJSON) {
			t.Fatalf("trial %d: Accumulate wrote a clone taken before it", trial)
		}

		snaps := []Snapshot{a, b}
		for range r.Intn(4) {
			snaps = append(snaps, randomSnapshot(t, r, &cov))
		}
		snaps = snaps[:r.Intn(len(snaps)+1)]
		if got, want := mustJSON(t, MergeAll(snaps)), mustJSON(t, refMergeAll(snaps)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: MergeAll of %d\n got %s\nwant %s", trial, len(snaps), got, want)
		}

		if !bytes.Equal(mustJSON(t, a), aJSON) || !bytes.Equal(mustJSON(t, b), bJSON) {
			t.Fatalf("trial %d: an input changed", trial)
		}
	}
	for name, n := range map[string]int{
		"overlapping series": cov.overlap, "disjoint series": cov.disjoint,
		"kind conflict": cov.conflict, "bucket-length mismatch": cov.bucketMismatch,
		"series missing from prev": cov.missingFromPrev, "counter underflow": cov.underflow,
		"nil input": cov.nilInput, "empty input": cov.emptyInput,
	} {
		if n == 0 {
			t.Errorf("no trial exercised %s", name)
		}
	}
}

// TestNilAndEmptySamplesSurvive pins the encodings digests depend on:
// MergeAll of nothing or of one snapshot without samples has a null
// sample list, while Merge and Delta always return a list.
func TestNilAndEmptySamplesSurvive(t *testing.T) {
	empty := Snapshot{Samples: []Sample{}}
	for _, c := range []struct {
		name string
		got  Snapshot
		want string
	}{
		{"MergeAll()", MergeAll(nil), `{"samples":null}`},
		{"MergeAll(nil)", MergeAll([]Snapshot{{}}), `{"samples":null}`},
		{"MergeAll(empty)", MergeAll([]Snapshot{empty}), `{"samples":null}`},
		{"MergeAll(nil, nil)", MergeAll([]Snapshot{{}, {}}), `{"samples":[]}`},
		{"Merge(nil, nil)", Snapshot{}.Merge(Snapshot{}), `{"samples":[]}`},
		{"Merge(empty, empty)", empty.Merge(empty), `{"samples":[]}`},
		{"Delta(nil, nil)", Snapshot{}.Delta(Snapshot{}), `{"samples":[]}`},
	} {
		if got := mustJSON(t, c.got); string(got) != c.want {
			t.Errorf("%s encodes %s, want %s", c.name, got, c.want)
		}
	}
}
