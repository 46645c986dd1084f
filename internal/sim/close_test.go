package sim

import (
	"context"
	"errors"
	"testing"

	"threadcluster/internal/cache"
)

// slabsOf returns the machine's caches by identity. A cache is pooled
// whole, so finding one of them in a later machine means that machine
// was built on recycled slabs.
func slabsOf(m *Machine) map[*cache.SetAssoc]bool {
	s := map[*cache.SetAssoc]bool{}
	for core := 0; core < m.topo.NumCores(); core++ {
		s[m.hier.L1(core)] = true
	}
	for chip := 0; chip < m.topo.Chips; chip++ {
		s[m.hier.L2(chip)] = true
		s[m.hier.L3(chip)] = true
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

// TestCloseRecyclesSlabs: a closed machine's slabs are what the next
// machine of that geometry is built on — also when the machine was
// closed for the caller, on RestoreMachine's two failure paths, which
// used to drop a fully allocated hierarchy on the floor.
func TestCloseRecyclesSlabs(t *testing.T) {
	ctx := context.Background()
	sc, cfg := closeTestConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffInstall(sc, cfg.Seed)(m); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRoundsCtx(ctx, 4); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	released := slabsOf(m)
	m.Close()

	// sync.Pool may drop an item (at random under the race detector), so
	// "reused" is any one of the released caches turning up again.
	requireReuse := func(what string) {
		t.Helper()
		next, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer next.Close()
		for c := range slabsOf(next) {
			if released[c] {
				return
			}
		}
		t.Fatalf("after %s: the next machine reused none of the %d released caches", what, len(released))
	}
	requireReuse("Close")

	boom := errors.New("install failed")
	_, err = RestoreMachine(cfg, snap, func(m *Machine) error {
		released = slabsOf(m)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RestoreMachine with a failing install: %v", err)
	}
	requireReuse("a failed install")

	// The workload is missing, so the snapshot cannot be overlaid.
	if _, err = RestoreMachine(cfg, snap, func(m *Machine) error {
		released = slabsOf(m)
		return nil
	}); err == nil {
		t.Fatal("RestoreMachine accepted a snapshot of threads that were never installed")
	}
	requireReuse("a failed RestoreSnapshot")
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
