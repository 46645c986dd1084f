package sim

import (
	"context"
	"errors"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
)

// slabsOf returns the slab identity of every cache of the machine that
// holds slabs. Slabs are pooled as a set, so finding one of them in a
// later machine means that cache runs on recycled slabs.
func slabsOf(m *Machine) map[*memory.Addr]bool {
	s := map[*memory.Addr]bool{}
	add := func(c *cache.SetAssoc) {
		if b := c.Backing(); b != nil {
			s[b] = true
		}
	}
	for core := 0; core < m.topo.NumCores(); core++ {
		add(m.hier.L1(core))
	}
	for chip := 0; chip < m.topo.Chips; chip++ {
		add(m.hier.L2(chip))
		add(m.hier.L3(chip))
	}
	return s
}

// closeTestConfig is a differential-scenario machine with a cache
// geometry no other test of the package parks slabs of.
func closeTestConfig() (diffTopo, Config) {
	sc := diffTopologies()[0]
	cfg := diffConfig(sc, EngineSeq, 5)
	cfg.Caches.L2.Ways, cfg.Caches.L3.Ways = 8, 8
	return sc, cfg
}

// TestCloseRecyclesSlabs: the slabs a closed machine held are what the
// next machine's caches of that geometry hold — also when the machine was
// closed for the caller, by a RestoreMachine that failed after the cache
// section had been restored. A RestoreMachine that fails before its first
// reference has built nothing: all it can hold, and hands back, is what
// it took from the pool when it was made.
func TestCloseRecyclesSlabs(t *testing.T) {
	ctx := context.Background()
	sc, cfg := closeTestConfig()
	boom := errors.New("boom")
	// The probe section restores last, after the caches.
	var probe func(*Machine) error
	install := func(m *Machine) error {
		if err := diffInstall(sc, cfg.Seed)(m); err != nil {
			return err
		}
		return m.RegisterStateProvider("probe", StateProvider{
			Save:    func(*snapbin.Enc) error { return nil },
			Restore: func(*snapbin.Dec) error { return probe(m) },
		})
	}
	run := func() *Machine {
		t.Helper()
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := install(m); err != nil {
			t.Fatal(err)
		}
		if err := m.RunRoundsCtx(ctx, 4); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := run()
	snap, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	released := slabsOf(m)
	if len(released) == 0 {
		t.Fatal("four rounds built no cache")
	}
	m.Close()

	// sync.Pool may drop an item (at random under the race detector), so
	// "reused" is any one of the released slab sets turning up again.
	requireReuse := func(what string) {
		t.Helper()
		next := run()
		defer next.Close()
		for b := range slabsOf(next) {
			if released[b] {
				return
			}
		}
		t.Fatalf("after %s: the next machine holds none of the %d released slab sets", what, len(released))
	}
	requireReuse("Close")

	var failed *Machine
	probe = func(m *Machine) error {
		failed, released = m, slabsOf(m)
		return boom
	}
	if _, err = RestoreMachine(cfg, snap, install); !errors.Is(err, boom) {
		t.Fatalf("RestoreMachine with a failing provider: %v", err)
	}
	if len(released) == 0 {
		t.Fatal("restoring the cache section built no cache")
	}
	if failed.hier != nil {
		t.Fatal("RestoreMachine failed and left its machine open")
	}
	requireReuse("a failed RestoreSnapshot")

	// Failures ahead of the cache section: a failing install, and a
	// missing workload, which the machine section refuses. The machine made
	// for the restore took the slabs the last one parked.
	for name, install := range map[string]func(*Machine) error{
		"install":     func(*Machine) error { return boom },
		"no workload": func(*Machine) error { return nil },
	} {
		_, err = RestoreMachine(cfg, snap, func(m *Machine) error {
			failed, released = m, slabsOf(m)
			return install(m)
		})
		if err == nil {
			t.Fatalf("%s: RestoreMachine succeeded", name)
		}
		if failed.hier != nil {
			t.Fatalf("%s: RestoreMachine failed and left its machine open", name)
		}
		if len(released) != 0 {
			requireReuse(name)
		}
	}
}

// TestCloseThenUsePanics: Close is idempotent, and every way of reaching
// the slabs of a closed machine panics with errUseAfterClose rather than
// reading what may by now be another machine's cache contents.
func TestCloseThenUsePanics(t *testing.T) {
	ctx := context.Background()
	sc, cfg := closeTestConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffInstall(sc, cfg.Seed)(m); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRoundsCtx(ctx, 2); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()

	for name, use := range map[string]func(){
		"RunRoundsCtx":    func() { _ = m.RunRoundsCtx(ctx, 1) },
		"Run":             func() { _ = m.Run(ctx, 1) },
		"Snapshot":        func() { _, _ = m.Snapshot(ctx) },
		"RestoreSnapshot": func() { _ = m.RestoreSnapshot(snap) },
		"SnapshotMetrics": func() { m.SnapshotMetrics() },
		"Metrics":         func() { m.Metrics() },
		"Hierarchy":       func() { m.Hierarchy() },
	} {
		func() {
			defer func() {
				if r := recover(); r != errUseAfterClose {
					t.Errorf("%s after Close: recovered %v, want panic %q", name, r, errUseAfterClose)
				}
			}()
			use()
		}()
	}
}
