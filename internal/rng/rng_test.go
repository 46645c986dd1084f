package rng

import (
	"errors"
	"testing"

	"threadcluster/internal/errs"
)

// TestSplitMix64KnownAnswers pins the raw step — state += γ, output
// mix(state) — to the reference implementation's vector for state
// 1234567, so the generator is SplitMix64 and not something like it.
func TestSplitMix64KnownAnswers(t *testing.T) {
	want := []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	}
	for i, w := range want {
		if got := mix(1234567 + uint64(i+1)*gamma); got != w {
			t.Errorf("step %d from state 1234567 = %d, want %d", i+1, got, w)
		}
	}
	// A Rand is that step started from mix(seed).
	r := New(42)
	for n := uint64(1); n <= 5; n++ {
		if got, want := r.Uint64(), mix(mix(42)+n*gamma); got != want {
			t.Errorf("New(42) output %d = %d, want %d", n, got, want)
		}
	}
}

// TestDeriveMatchesPinnedSeeds: Derive is the function sweep.DeriveSeed
// has always been (values computed by the pre-epoch DeriveSeed), so
// per-cell seeds did not move with the generator.
func TestDeriveMatchesPinnedSeeds(t *testing.T) {
	for _, c := range []struct {
		base  int64
		index int
		want  int64
	}{
		{1, 0, 6238072747940578789},
		{1, 1, 1227844342346046657},
		{20070321, 1000, 6787157607376238295},
		{-5, -1, 3655848836824438503},
	} {
		if got := Derive(c.base, c.index); got != c.want {
			t.Errorf("Derive(%d, %d) = %d, want %d", c.base, c.index, got, c.want)
		}
		if Derive(c.base, c.index) < 0 {
			t.Errorf("Derive(%d, %d) is negative", c.base, c.index)
		}
	}
}

// drawMixed consumes one value through the method op selects and
// returns it widened to uint64.
func drawMixed(r *Rand, op byte) uint64 {
	switch op % 4 {
	case 0:
		return r.Uint64()
	case 1:
		return uint64(r.Intn(997))
	case 2:
		return uint64(r.Int63n(1<<40 + 3))
	default:
		return uint64(r.Float64() * (1 << 53))
	}
}

// TestStateRestore: capture mid-stream, keep drawing, restore into a
// fresh generator of the same seed — the only kind Restore accepts — and
// require the continuations to agree exactly.
func TestStateRestore(t *testing.T) {
	r := New(99)
	for i := 0; i < 12345; i++ {
		drawMixed(r, byte(i))
	}
	st := r.State()
	if st.Seed != 99 || st.Draws < 12345 {
		t.Fatalf("State = %+v after 12345 draws from seed 99", st)
	}
	fresh := New(99)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := fresh.State(); got != st {
		t.Fatalf("State after Restore = %+v, want %+v", got, st)
	}
	for i := 0; i < 500; i++ {
		if got, want := drawMixed(fresh, byte(i)), drawMixed(r, byte(i)); got != want {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, want)
		}
	}
}

// TestStateCountsMixedMethods: Draws counts outputs consumed, whichever
// method consumed them — one per Float64 and Uint64, one per attempt of
// a bounded draw — so a position captured after any mix is exact.
func TestStateCountsMixedMethods(t *testing.T) {
	a := New(7)
	a.Intn(10)
	a.Float64()
	a.Int63n(3) // may redraw internally; every attempt is one output
	a.Uint64()
	st := a.State()
	if st.Draws < 4 {
		t.Fatalf("Draws = %d after four draws", st.Draws)
	}
	b := New(7)
	for i := uint64(0); i < st.Draws; i++ {
		b.Uint64()
	}
	for i := 0; i < 100; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

// TestRestoreIsConstantTime: a position 2^60 draws into the stream is
// reached at once — a Restore that replayed draws would never return
// and the test would time out — round-trips through State, and keeps
// drawing from there.
func TestRestoreIsConstantTime(t *testing.T) {
	st := State{Seed: 7, Draws: 1 << 60}
	r := New(7)
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := r.State(); got != st {
		t.Fatalf("State after Restore = %+v, want %+v", got, st)
	}
	next := st.Draws + 1
	if got, want := r.Uint64(), mix(mix(7)+next*gamma); got != want {
		t.Errorf("output 2^60+1 = %d, want %d", got, want)
	}
	if got := r.State().Draws; got != next {
		t.Errorf("Draws after one more output = %d, want 2^60+1", got)
	}
}

// FuzzRandRestore: after any prefix of draws through any mix of
// methods, State → Restore into a fresh generator of the same seed
// yields the same continuation.
func FuzzRandRestore(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(-20070321), []byte{3, 3, 1, 2, 2, 0, 1})
	f.Add(int64(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		a := New(seed)
		for _, op := range ops {
			drawMixed(a, op)
		}
		st := a.State()
		if st.Seed != seed || st.Draws < uint64(len(ops)) {
			t.Fatalf("State = %+v after %d draws from seed %d", st, len(ops), seed)
		}
		b := New(seed)
		if err := b.Restore(st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			op := byte(i)
			if i < len(ops) {
				op = ops[i]
			}
			if got, want := drawMixed(b, op), drawMixed(a, op); got != want {
				t.Fatalf("continuation draw %d (op %d) = %d, want %d", i, op%4, got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("states diverged: %+v vs %+v", a.State(), b.State())
		}
	})
}

// TestRestoreRefusesForeignSeed: New is the only call that picks a
// stream. A State of another seed's stream is refused with ErrBadConfig
// and leaves the generator where it was, at every position.
func TestRestoreRefusesForeignSeed(t *testing.T) {
	for _, foreign := range []State{{Seed: 8}, {Seed: 8, Draws: 5}, {Seed: -7, Draws: 1 << 60}} {
		r := New(7)
		r.Uint64()
		before := r.State()
		if err := r.Restore(foreign); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("Restore(%+v) onto New(7) = %v, want ErrBadConfig", foreign, err)
		}
		if got := r.State(); got != before {
			t.Errorf("refused Restore(%+v) moved the generator: %+v, want %+v", foreign, got, before)
		}
		ref := New(7)
		ref.Uint64()
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Errorf("draw after refused Restore(%+v) = %d, want seed 7's second output %d", foreign, got, want)
		}
	}
}

// chiSquare returns Pearson's statistic of observed counts against a
// uniform expectation.
func chiSquare(counts []int, total int) float64 {
	expect := float64(total) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		x2 += d * d / expect
	}
	return x2
}

// TestUniformity: Intn on bounds that are not powers of two (where a
// biased reduction shows) and Float64 by decile pass a chi-square test.
// The seeds are fixed, so this is a regression pin, not a coin flip:
// the limit is the 99.99th percentile for the degrees of freedom.
func TestUniformity(t *testing.T) {
	const draws = 400_000
	for _, c := range []struct {
		bound, buckets int
		limit          float64
	}{
		{3, 3, 18.4},          // df 2
		{7, 7, 27.9},          // df 6
		{997, 997, 1170},      // df 996
		{1000003, 100, 161.3}, // df 99; values folded mod 100 (1000003 = 3 mod 100: expected skew 3e-6)
	} {
		r := New(Derive(20070321, c.bound))
		counts := make([]int, c.buckets)
		for i := 0; i < draws; i++ {
			v := r.Intn(c.bound)
			if v < 0 || v >= c.bound {
				t.Fatalf("Intn(%d) = %d out of range", c.bound, v)
			}
			counts[v%c.buckets]++
		}
		if x2 := chiSquare(counts, draws); x2 > c.limit {
			t.Errorf("Intn(%d): chi-square %.1f over %d buckets exceeds %.1f", c.bound, x2, c.buckets, c.limit)
		}
	}
	r := New(Derive(20070321, 10))
	deciles := make([]int, 10)
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0, 1)", f)
		}
		deciles[int(f*10)]++
	}
	if x2 := chiSquare(deciles, draws); x2 > 33.7 { // df 9
		t.Errorf("Float64 deciles: chi-square %.1f exceeds 33.7: %v", x2, deciles)
	}
}

// TestIntnRejectsBiasedSliver drives the redraw path: for a bound just
// over 2^63 nearly half of all raw outputs land in the sliver, and the
// result must stay in range and uniform over the two halves.
func TestIntnRejectsBiasedSliver(t *testing.T) {
	const bound = 1<<62 + 1<<61 + 12345
	r := New(5)
	low := 0
	const draws = 100_000
	for i := 0; i < draws; i++ {
		v := r.Int63n(bound)
		if v < 0 || v >= bound {
			t.Fatalf("Int63n = %d out of range", v)
		}
		if v < bound/2 {
			low++
		}
	}
	if st := r.State(); st.Draws <= draws {
		t.Errorf("no redraw in %d draws at bound %d (Draws = %d)", draws, int64(bound), st.Draws)
	}
	if x2 := chiSquare([]int{low, draws - low}, draws); x2 > 15.1 { // df 1
		t.Errorf("halves %d/%d: chi-square %.1f exceeds 15.1", low, draws-low, x2)
	}
}

// TestBoundsPanic: a non-positive bound is a caller bug, not a draw.
func TestBoundsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"Intn(0)":    func() { New(1).Intn(0) },
		"Intn(-1)":   func() { New(1).Intn(-1) },
		"Int63n(0)":  func() { New(1).Int63n(0) },
		"Int63n(-5)": func() { New(1).Int63n(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDerivedSiblingsAreDisjoint: 64 streams derived from one base
// share no output in their first 4096 draws — sibling threads of a
// workload never replay each other's references.
func TestDerivedSiblingsAreDisjoint(t *testing.T) {
	const streams, draws = 64, 4096
	seen := make(map[uint64]int, streams*draws)
	for s := 0; s < streams; s++ {
		r := New(Derive(1, s))
		for i := 0; i < draws; i++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("stream %d draw %d repeats a value of stream %d", s, i, prev)
			}
			seen[v] = s
		}
	}
}

// TestDrawsDoNotAllocate: generators sit inside every simulated thread's
// Next(); a draw must stay off the heap.
func TestDrawsDoNotAllocate(t *testing.T) {
	r := New(3)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += float64(r.Intn(1000)) + float64(r.Int63n(1<<40)) + r.Float64()
	}); n != 0 {
		t.Errorf("draws allocate %v times per run", n)
	}
	_ = sink
}
