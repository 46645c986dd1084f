package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"threadcluster/internal/topology"
)

func newSched(t *testing.T, policy Policy) *Scheduler {
	t.Helper()
	s, err := New(topology.OpenPower720(), policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultPlacementLeastLoaded(t *testing.T) {
	s := newSched(t, PolicyDefault)
	for i := 0; i < 8; i++ {
		if err := s.AddThread(ThreadID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 8 threads over 8 CPUs: every queue should have exactly one.
	for c := 0; c < 8; c++ {
		if got := s.QueueLen(topology.CPUID(c)); got != 1 {
			t.Errorf("queue %d length = %d, want 1", c, got)
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	s := newSched(t, PolicyRoundRobin)
	for i := 0; i < 16; i++ {
		if err := s.AddThread(ThreadID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cpu, ok := s.CPUOf(ThreadID(i))
		if !ok || int(cpu) != i%8 {
			t.Errorf("thread %d on CPU %d, want %d", i, cpu, i%8)
		}
	}
}

func TestHandOptimizedPlacement(t *testing.T) {
	s := newSched(t, PolicyHandOptimized)
	// Partition: even threads -> chip 0, odd -> chip 1.
	s.SetPartitionHint(func(id ThreadID) int { return int(id) % 2 })
	for i := 0; i < 16; i++ {
		if err := s.AddThread(ThreadID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		chip, ok := s.ChipOf(ThreadID(i))
		if !ok || chip != i%2 {
			t.Errorf("thread %d on chip %d, want %d", i, chip, i%2)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHandOptimizedRequiresHint(t *testing.T) {
	s := newSched(t, PolicyHandOptimized)
	if err := s.AddThread(1); err == nil {
		t.Error("hand-optimized without a hint should fail")
	}
}

func TestAddThreadDuplicate(t *testing.T) {
	s := newSched(t, PolicyDefault)
	if err := s.AddThread(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddThread(1); err == nil {
		t.Error("duplicate AddThread should fail")
	}
}

func TestPickNextRequeueCycle(t *testing.T) {
	s := newSched(t, PolicyRoundRobin)
	_ = s.AddThread(1)
	_ = s.AddThread(9) // also CPU 1? no: rr 0->cpu0, 9->cpu1. Use same-CPU pair instead.
	s2 := newSched(t, PolicyRoundRobin)
	for i := 0; i < 16; i++ {
		_ = s2.AddThread(ThreadID(i))
	}
	// CPU 0 hosts threads 0 and 8; they must alternate.
	a, ok := s2.PickNext(0)
	if !ok {
		t.Fatal("expected a runnable thread")
	}
	s2.Requeue(a)
	b, _ := s2.PickNext(0)
	s2.Requeue(b)
	c, _ := s2.PickNext(0)
	s2.Requeue(c)
	if a == b || a != c {
		t.Errorf("round-robin within queue broken: got %d,%d,%d", a, b, c)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPickNextEmptyStaticPolicy(t *testing.T) {
	s := newSched(t, PolicyRoundRobin)
	_ = s.AddThread(1) // on CPU 0
	if _, ok := s.PickNext(5); ok {
		t.Error("static policy must not steal; CPU 5 should be idle")
	}
}

func TestReactiveStealUnderDefault(t *testing.T) {
	s := newSched(t, PolicyDefault)
	// Load all 8 threads onto the machine, then drain CPU 0's queue and
	// pile extra threads on CPU 1 by migration.
	for i := 0; i < 4; i++ {
		_ = s.AddThread(ThreadID(i))
	}
	for i := 0; i < 4; i++ {
		_ = s.Migrate(ThreadID(i), 1)
	}
	if _, ok := s.PickNext(0); !ok {
		t.Fatal("idle CPU 0 should have stolen a thread from CPU 1")
	}
	if s.Steals() == 0 {
		t.Error("steal counter should have incremented")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMigrate(t *testing.T) {
	s := newSched(t, PolicyDefault)
	_ = s.AddThread(1)
	if err := s.Migrate(1, 7); err != nil {
		t.Fatal(err)
	}
	cpu, _ := s.CPUOf(1)
	if cpu != 7 {
		t.Errorf("after migrate CPU = %d, want 7", cpu)
	}
	if got, _ := s.PickNext(7); got != 1 {
		t.Error("migrated thread should be runnable on CPU 7")
	}
	if err := s.Migrate(99, 0); err == nil {
		t.Error("migrating unknown thread should fail")
	}
	if err := s.Migrate(1, 100); err == nil {
		t.Error("migrating to bogus CPU should fail")
	}
}

func TestMigrateWhileRunning(t *testing.T) {
	s := newSched(t, PolicyDefault)
	_ = s.AddThread(1)
	id, ok := s.PickNext(0)
	if !ok || id != 1 {
		t.Fatal("setup failed")
	}
	if err := s.Migrate(1, 4); err != nil {
		t.Fatal(err)
	}
	s.Requeue(1)
	if got, _ := s.PickNext(4); got != 1 {
		t.Error("thread migrated while running should requeue on the new CPU")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveThread(t *testing.T) {
	s := newSched(t, PolicyDefault)
	_ = s.AddThread(1)
	_ = s.AddThread(2)
	s.RemoveThread(1)
	if _, ok := s.CPUOf(1); ok {
		t.Error("removed thread should be unknown")
	}
	if s.NumThreads() != 1 {
		t.Errorf("NumThreads = %d, want 1", s.NumThreads())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Removing a running thread must also work.
	id, _ := s.PickNext(func() topology.CPUID { c, _ := s.CPUOf(2); return c }())
	if id != 2 {
		t.Fatal("setup: expected to run thread 2")
	}
	s.RemoveThread(2)
	s.Requeue(2) // must be a no-op
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestProactiveBalanceDefault(t *testing.T) {
	s := newSched(t, PolicyDefault)
	for i := 0; i < 16; i++ {
		_ = s.AddThread(ThreadID(i))
	}
	// Pile everything on CPU 0.
	for i := 0; i < 16; i++ {
		_ = s.Migrate(ThreadID(i), 0)
	}
	s.ProactiveBalance()
	max, min := 0, 1<<30
	for c := 0; c < 8; c++ {
		n := s.QueueLen(topology.CPUID(c))
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max-min > 1 {
		t.Errorf("after balance queue spread = %d..%d, want within 1", min, max)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestProactiveBalanceRespectsPins(t *testing.T) {
	s, err := New(topology.OpenPower720(), PolicyClustered, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = s.AddThread(ThreadID(i))
	}
	// Engine placed everything on chip 0 and pinned it.
	for i := 0; i < 8; i++ {
		_ = s.Migrate(ThreadID(i), topology.CPUID(i%4))
		s.Pin(ThreadID(i))
	}
	s.ProactiveBalance()
	for i := 0; i < 8; i++ {
		chip, _ := s.ChipOf(ThreadID(i))
		if chip != 0 {
			t.Errorf("pinned thread %d moved to chip %d", i, chip)
		}
	}
	// But intra-chip balancing still happened: chip-0 queues within 1.
	lens := []int{}
	for _, cpu := range topology.OpenPower720().CPUsOfChip(0) {
		lens = append(lens, s.QueueLen(cpu))
	}
	for _, n := range lens {
		if n < 1 || n > 3 {
			t.Errorf("intra-chip balance left queue length %d (all: %v)", n, lens)
		}
	}
}

func TestStaticPoliciesNeverBalance(t *testing.T) {
	for _, pol := range []Policy{PolicyRoundRobin, PolicyHandOptimized} {
		s, _ := New(topology.OpenPower720(), pol, 1)
		s.SetPartitionHint(func(ThreadID) int { return 0 })
		for i := 0; i < 8; i++ {
			_ = s.AddThread(ThreadID(i))
		}
		for i := 0; i < 8; i++ {
			_ = s.Migrate(ThreadID(i), 3)
		}
		s.ProactiveBalance()
		if got := s.QueueLen(3); got != 8 {
			t.Errorf("%v: balance moved threads (queue 3 = %d, want 8)", pol, got)
		}
	}
}

func TestChipLoad(t *testing.T) {
	s := newSched(t, PolicyRoundRobin)
	for i := 0; i < 6; i++ {
		_ = s.AddThread(ThreadID(i))
	}
	load := s.ChipLoad()
	if load[0]+load[1] != 6 {
		t.Errorf("chip loads %v should sum to 6", load)
	}
}

func TestRandomCPUOnChip(t *testing.T) {
	s := newSched(t, PolicyDefault)
	for i := 0; i < 100; i++ {
		cpu := s.RandomCPUOnChip(1)
		if s.Topology().ChipOf(cpu) != 1 {
			t.Fatalf("RandomCPUOnChip(1) returned CPU %d on chip %d", cpu, s.Topology().ChipOf(cpu))
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for pol, want := range map[Policy]string{
		PolicyDefault: "default", PolicyRoundRobin: "round-robin",
		PolicyHandOptimized: "hand-optimized", PolicyClustered: "clustered",
	} {
		if pol.String() != want {
			t.Errorf("%d.String() = %q, want %q", pol, pol.String(), want)
		}
	}
}

// Property: a random storm of add/pick/requeue/migrate/balance operations
// never breaks scheduler invariants and never loses a thread.
func TestSchedulerInvariantsUnderStress(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		s, err := New(topology.OpenPower720(), PolicyDefault, seed)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		next := 0
		var runningSet []ThreadID
		for _, op := range ops {
			switch op % 6 {
			case 0, 1: // add
				_ = s.AddThread(ThreadID(next))
				next++
			case 2: // pick
				cpu := topology.CPUID(rng.Intn(8))
				if id, ok := s.PickNext(cpu); ok {
					runningSet = append(runningSet, id)
				}
			case 3: // requeue one running thread
				if len(runningSet) > 0 {
					s.Requeue(runningSet[0])
					runningSet = runningSet[1:]
				}
			case 4: // migrate random thread
				if next > 0 {
					_ = s.Migrate(ThreadID(rng.Intn(next)), topology.CPUID(rng.Intn(8)))
				}
			case 5: // balance
				s.ProactiveBalance()
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		// Drain: requeue all running, then total threads must match.
		for _, id := range runningSet {
			s.Requeue(id)
		}
		total := 0
		for c := 0; c < 8; c++ {
			total += s.QueueLen(topology.CPUID(c))
		}
		return total == next && s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
