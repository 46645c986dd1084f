package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sim/simtest"
	"threadcluster/internal/workloads"
)

func randomTrace(rng *rand.Rand, nThreads, nRefs int) *Trace {
	t := &Trace{}
	for i := 0; i < nThreads; i++ {
		th := ThreadTrace{ID: sched.ThreadID(i * 3), Partition: i % 4}
		for j := 0; j < nRefs; j++ {
			th.Refs = append(th.Refs, sim.MemRef{
				Addr:        memory.Addr(rng.Uint64() >> 8),
				Write:       rng.Intn(2) == 0,
				Insts:       uint64(rng.Intn(100)),
				BranchStall: uint64(rng.Intn(8)),
				OtherStall:  uint64(rng.Intn(8)),
				Ops:         uint64(rng.Intn(3)),
			})
		}
		t.Threads = append(t.Threads, th)
	}
	return t
}

func tracesEqual(a, b *Trace) bool {
	if len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Threads {
		ta, tb := a.Threads[i], b.Threads[i]
		if ta.ID != tb.ID || ta.Partition != tb.Partition || len(ta.Refs) != len(tb.Refs) {
			return false
		}
		for j := range ta.Refs {
			if ta.Refs[j] != tb.Refs[j] {
				return false
			}
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := randomTrace(rng, 4, 200)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(orig, loaded) {
		t.Fatal("round trip mangled the trace")
	}
}

// Property: arbitrary traces survive serialization bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, threadsRaw, refsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomTrace(rng, int(threadsRaw%5)+1, int(refsRaw%50)+1)
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(orig, loaded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	orig := randomTrace(rand.New(rand.NewSource(5)), 3, 500)
	var plain, compressed bytes.Buffer
	if err := orig.Save(&plain); err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveCompressed(&compressed); err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= plain.Len() {
		t.Errorf("compressed %d bytes >= plain %d bytes", compressed.Len(), plain.Len())
	}
	loaded, err := Load(&compressed)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(orig, loaded) {
		t.Fatal("compressed round trip mangled the trace")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Load(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	buf.WriteString("TCTR")
	buf.Write([]byte{99, 0, 0, 0, 1, 0, 0, 0})
	if _, err := Load(&buf); err == nil {
		t.Error("bad version should fail")
	}
	// Truncated body.
	buf.Reset()
	orig := randomTrace(rand.New(rand.NewSource(2)), 2, 10)
	_ = orig.Save(&buf)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace should fail")
	}
	// A ref count at the plausibility bound over a one-record body: the
	// count alone must not size an allocation (it once asked for 192 GiB).
	buf.Reset()
	buf.WriteString("TCTR")
	_ = binary.Write(&buf, binary.LittleEndian, []uint32{1, 1})
	_ = binary.Write(&buf, binary.LittleEndian, []int64{0, 0})
	_ = binary.Write(&buf, binary.LittleEndian, []uint64{1 << 32, 64})
	_ = binary.Write(&buf, binary.LittleEndian, []uint32{1, 0, 0, 0})
	if _, err := Load(&buf); err == nil {
		t.Error("a trace shorter than its ref count should fail")
	}
}

func TestReplayLoops(t *testing.T) {
	tr := &Trace{Threads: []ThreadTrace{{
		ID: 5, Partition: 1,
		Refs: []sim.MemRef{{Addr: 1, Insts: 1}, {Addr: 2, Insts: 2}},
	}}}
	threads, err := tr.ThreadsForReplay()
	if err != nil {
		t.Fatal(err)
	}
	g := threads[0].Gen
	seq := []memory.Addr{g.Next().Addr, g.Next().Addr, g.Next().Addr, g.Next().Addr}
	want := []memory.Addr{1, 2, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("replay sequence %v, want %v", seq, want)
		}
	}
	if threads[0].ID != 5 || threads[0].Partition != 1 {
		t.Error("replay thread metadata lost")
	}
}

// TestRunsMatchNext: a replay consumed through NextRun, which hands out
// the rest of the capture up to its loop point, yields the Next stream
// across many loops.
func TestRunsMatchNext(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 3, 1_000)
	var gens [2][]sim.Generator
	for i := range gens {
		threads, err := tr.ThreadsForReplay()
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range threads {
			gens[i] = append(gens[i], th.Gen)
		}
	}
	simtest.RunsMatchNext(t, gens[0], gens[1], 200_000, 20070321)
}

// TestSaveRefusesWhatARecordCannotHold: the u32 fields of a record take
// every value up to their bound and refuse the next, instead of saving a
// truncated stream that replays differently.
func TestSaveRefusesWhatARecordCannotHold(t *testing.T) {
	fields := map[string]func(*sim.MemRef, uint64){
		"Insts":       func(r *sim.MemRef, v uint64) { r.Insts = v },
		"BranchStall": func(r *sim.MemRef, v uint64) { r.BranchStall = v },
		"OtherStall":  func(r *sim.MemRef, v uint64) { r.OtherStall = v },
		"Ops":         func(r *sim.MemRef, v uint64) { r.Ops = v },
	}
	bound := map[string]uint64{"Insts": math.MaxUint32, "BranchStall": math.MaxUint32, "OtherStall": math.MaxUint32, "Ops": 1<<31 - 1}
	for name, set := range fields {
		t.Run(name, func(t *testing.T) {
			tr := &Trace{Threads: []ThreadTrace{{ID: 1, Refs: make([]sim.MemRef, 2)}}}
			tr.Threads[0].Refs[1].Write = true // the write bit shares the Ops word
			set(&tr.Threads[0].Refs[1], bound[name])
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				t.Fatalf("%s = %d: %v", name, bound[name], err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !tracesEqual(tr, loaded) {
				t.Fatalf("%s = %d: saved %+v, loaded %+v", name, bound[name], tr.Threads[0].Refs[1], loaded.Threads[0].Refs[1])
			}
			set(&tr.Threads[0].Refs[1], bound[name]+1)
			if err := tr.Save(io.Discard); err == nil {
				t.Fatalf("%s = %d saved; the record cannot hold it", name, bound[name]+1)
			}
		})
	}
}

func TestReplayRejectsEmptyThread(t *testing.T) {
	tr := &Trace{Threads: []ThreadTrace{{ID: 1}}}
	if _, err := tr.ThreadsForReplay(); err == nil {
		t.Error("empty thread stream should fail")
	}
}

func TestRecorderCapturesAndCaps(t *testing.T) {
	arena := memory.NewDefaultArena()
	cfg := workloads.DefaultSyntheticConfig()
	spec, err := workloads.NewSynthetic(arena, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(50)
	for _, th := range spec.Threads {
		rec.Wrap(th)
	}
	mcfg := sim.DefaultConfig()
	mcfg.QuantumCycles = 10_000
	m, _ := sim.NewMachine(mcfg)
	if err := spec.Install(m); err != nil {
		t.Fatal(err)
	}
	m.RunRoundsCtx(context.Background(), 20)
	if rec.Captured() == 0 {
		t.Fatal("nothing captured")
	}
	snap := rec.Snapshot()
	for _, th := range snap.Threads {
		if len(th.Refs) > 50 {
			t.Errorf("thread %d captured %d refs, cap is 50", th.ID, len(th.Refs))
		}
	}
	if snap.Footprint() == 0 {
		t.Error("trace should touch lines")
	}
	if snap.SharedLines() == 0 {
		t.Error("scoreboard workload should have shared lines")
	}
}

func TestRecordedTraceReplaysFaithfully(t *testing.T) {
	// Record a run, replay it, and check the replay produces the same
	// sharing behaviour (remote fraction in the same ballpark under the
	// same scatter placement).
	build := func() *sim.Machine {
		mcfg := sim.DefaultConfig()
		mcfg.Policy = sched.PolicyRoundRobin
		mcfg.QuantumCycles = 20_000
		m, _ := sim.NewMachine(mcfg)
		return m
	}
	arena := memory.NewDefaultArena()
	spec, _ := workloads.NewSynthetic(arena, workloads.DefaultSyntheticConfig())
	rec := NewRecorder(0)
	for _, th := range spec.Threads {
		rec.Wrap(th)
	}
	m1 := build()
	if err := spec.Install(m1); err != nil {
		t.Fatal(err)
	}
	m1.RunRoundsCtx(context.Background(), 100)
	f1 := m1.Breakdown().RemoteFraction()

	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	threads, err := loaded.ThreadsForReplay()
	if err != nil {
		t.Fatal(err)
	}
	m2 := build()
	for _, th := range threads {
		if err := m2.AddThread(th); err != nil {
			t.Fatal(err)
		}
	}
	m2.RunRoundsCtx(context.Background(), 100)
	f2 := m2.Breakdown().RemoteFraction()
	if f1 <= 0 {
		t.Fatal("capture run produced no sharing")
	}
	if f2 < f1*0.5 || f2 > f1*1.5 {
		t.Errorf("replay remote fraction %.4f far from capture %.4f", f2, f1)
	}
}
