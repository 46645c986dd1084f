package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"threadcluster/internal/clustering"
	"threadcluster/internal/errs"
	"threadcluster/internal/snapbin"
)

// TestSnapshotDifferential is the snapshot pin: running N+M rounds in
// one piece must be byte-identical to running N rounds, snapshotting,
// encoding, decoding, restoring into a freshly built machine and running
// M more — access streams, PMU counters, coherence counters, per-thread
// accounting and metrics snapshots all included — on every topology,
// both engines, and GOMAXPROCS 1/2/NumCPU. The snapshot digest must also
// be identical across engines and GOMAXPROCS: the encoding is canonical.
func TestSnapshotDifferential(t *testing.T) {
	const seed = 99
	const preRounds, postRounds = 24, 16
	ctx := context.Background()
	for _, sc := range diffTopologies() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			digests := make(map[string]string)
			for _, engine := range []Engine{EngineSeq, EngineParallel} {
				engine := engine
				t.Run(engine.String(), func(t *testing.T) {
					for _, procs := range gomaxprocsLevels() {
						procs := procs
						t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
							old := runtime.GOMAXPROCS(procs)
							defer runtime.GOMAXPROCS(old)

							ref := buildDiffMachine(t, sc, engine, seed)
							enableCapture(ref)
							if err := ref.RunRoundsCtx(ctx, preRounds+postRounds); err != nil {
								t.Fatal(err)
							}
							want := captureState(t, ref)

							split := buildDiffMachine(t, sc, engine, seed)
							enableCapture(split)
							if err := split.RunRoundsCtx(ctx, preRounds); err != nil {
								t.Fatal(err)
							}
							snap, err := split.Snapshot(ctx)
							if err != nil {
								t.Fatal(err)
							}
							enc := snap.Encode()
							key := fmt.Sprintf("%s/gomaxprocs=%d", engine, procs)
							digests[key] = snap.Digest()

							decoded, err := DecodeSnapshot(enc)
							if err != nil {
								t.Fatal(err)
							}
							restored, err := RestoreMachine(diffConfig(sc, engine, seed), decoded, diffInstall(sc, seed))
							if err != nil {
								t.Fatal(err)
							}
							// The restored machine must re-snapshot to the
							// exact bytes it was restored from.
							resnap, err := restored.Snapshot(ctx)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(resnap.Encode(), enc) {
								t.Fatal("snapshot of the restored machine diverges from the snapshot it was restored from")
							}
							enableCapture(restored)
							if err := restored.RunRoundsCtx(ctx, postRounds); err != nil {
								t.Fatal(err)
							}
							got := captureState(t, restored)
							// The pre-snapshot and post-restore access
							// streams concatenate into the uninterrupted run.
							for c := range got.capture {
								got.capture[c] = append(split.capture[c], got.capture[c]...)
							}
							diffStates(t, want, got)
						})
					}
				})
			}
			first := ""
			for key, dig := range digests {
				if first == "" {
					first = dig
				}
				if dig != first {
					t.Fatalf("snapshot digest differs at %s: %s vs %s (encoding is not canonical)", key, dig, first)
				}
			}
		})
	}
}

// shmapTable is a test-local state provider foreign to the machine: a
// keyed table of shMaps and the number of driver events applied to it.
type shmapTable struct {
	events uint64
	rows   map[clustering.ThreadKey]*clustering.ShMap
}

const shmapTableEntries = 64

// tick applies driver event number t.events. Every event is a pure
// function of the table's own state, so after a restore the continuation
// depends on snapshotted state only — no driver-private bookkeeping to
// lose. Event n concerns key n%48: a present key departs on every
// seventh event, otherwise its row is replaced (or it arrives) with a
// banded pattern (four key groups, sixteen entries each) whose counts
// vary with n.
func (t *shmapTable) tick() {
	n := t.events
	t.events++
	key := clustering.ThreadKey(n % 48)
	if _, ok := t.rows[key]; ok && n%7 == 3 {
		delete(t.rows, key)
		return
	}
	sm := clustering.NewShMap(shmapTableEntries)
	base := (int(key) % 4) * 16
	for i := 0; i < 12; i++ {
		reps := 1 + int((n+uint64(i))%3)
		for r := 0; r < reps; r++ {
			sm.Increment(base + i)
		}
	}
	t.rows[key] = sm
}

func (t *shmapTable) save(enc *snapbin.Enc) error {
	enc.U64(t.events)
	keys := make([]clustering.ThreadKey, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	enc.U32(uint32(len(keys)))
	for _, k := range keys {
		enc.I64(int64(k))
		t.rows[k].SaveState(enc)
	}
	return nil
}

func (t *shmapTable) restore(d *snapbin.Dec) error {
	events := d.U64()
	n := d.Count(8 + 4 + shmapTableEntries)
	rows := make(map[clustering.ThreadKey]*clustering.ShMap, n)
	for i := 0; i < n; i++ {
		sm := clustering.NewShMap(shmapTableEntries)
		rows[clustering.ThreadKey(d.I64())] = sm
		if err := sm.RestoreState(d); err != nil {
			return err
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	t.events, t.rows = events, rows
	return nil
}

// foreignProviderInstall is diffInstall plus a shmapTable registered as
// an extra state provider and driven once per tick.
func foreignProviderInstall(sc diffTopo, seed int64) func(*Machine) error {
	base := diffInstall(sc, seed)
	return func(m *Machine) error {
		if err := base(m); err != nil {
			return err
		}
		table := &shmapTable{rows: make(map[clustering.ThreadKey]*clustering.ShMap)}
		if err := m.RegisterStateProvider("test.shmaps", StateProvider{
			Save:    table.save,
			Restore: table.restore,
		}); err != nil {
			return err
		}
		m.OnTick(func(*Machine) { table.tick() })
		return nil
	}
}

// TestSnapshotDifferentialForeignProvider extends the snapshot pin to
// state the machine does not own: a machine carrying a foreign state
// provider (mutated by a deterministic per-tick driver) must survive
// snapshot/restore byte-exactly, and the restored run must end in the
// same digest as the uninterrupted one.
func TestSnapshotDifferentialForeignProvider(t *testing.T) {
	const seed = 77
	const preRounds, postRounds = 24, 16
	ctx := context.Background()
	sc := diffTopologies()[0]
	for _, engine := range []Engine{EngineSeq, EngineParallel} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			build := func() *Machine {
				m, err := NewMachine(diffConfig(sc, engine, seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := foreignProviderInstall(sc, seed)(m); err != nil {
					t.Fatal(err)
				}
				return m
			}

			ref := build()
			if err := ref.RunRoundsCtx(ctx, preRounds+postRounds); err != nil {
				t.Fatal(err)
			}
			refSnap, err := ref.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}

			split := build()
			if err := split.RunRoundsCtx(ctx, preRounds); err != nil {
				t.Fatal(err)
			}
			snap, err := split.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, name := range snap.Sections() {
				if name == "test.shmaps" {
					found = true
				}
			}
			if !found {
				t.Fatalf("snapshot sections %v lack the foreign provider", snap.Sections())
			}
			decoded, err := DecodeSnapshot(snap.Encode())
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreMachine(diffConfig(sc, engine, seed), decoded, foreignProviderInstall(sc, seed))
			if err != nil {
				t.Fatal(err)
			}
			resnap, err := restored.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resnap.Encode(), snap.Encode()) {
				t.Fatal("snapshot of the restored machine diverges from the snapshot it was restored from")
			}
			if err := restored.RunRoundsCtx(ctx, postRounds); err != nil {
				t.Fatal(err)
			}
			gotSnap, err := restored.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := gotSnap.Digest(), refSnap.Digest(); got != want {
				t.Fatalf("restored run diverges from uninterrupted run:\nrestored:      %s\nuninterrupted: %s", got, want)
			}
		})
	}
}

// TestSnapshotErrors pins the refusal paths: snapshotting a machine with
// an unconfined generator, restoring onto a machine missing a thread,
// and decoding damaged bytes.
func TestSnapshotErrors(t *testing.T) {
	ctx := context.Background()
	sc := diffTopo{name: "open720", topo: diffTopologies()[0].topo}

	t.Run("unconfined generator", func(t *testing.T) {
		m := buildDiffMachine(t, sc, EngineSeq, 5)
		th := m.Threads()[0]
		id, gen := th.ID, th.Gen
		if err := m.RemoveThread(id); err != nil {
			t.Fatal(err)
		}
		if err := m.AddThread(&Thread{ID: id, Gen: unconfined{gen}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Snapshot(ctx); !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("snapshot with unconfined generator: %v, want ErrBadConfig", err)
		}
	})

	t.Run("thread set mismatch", func(t *testing.T) {
		m := buildDiffMachine(t, sc, EngineSeq, 5)
		snap, err := m.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		other := buildDiffMachine(t, sc, EngineSeq, 5)
		if err := other.RemoveThread(other.Threads()[0].ID); err != nil {
			t.Fatal(err)
		}
		if err := other.RestoreSnapshot(snap); !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("restore with missing thread: %v, want ErrBadConfig", err)
		}
	})

	t.Run("damaged bytes", func(t *testing.T) {
		m := buildDiffMachine(t, sc, EngineSeq, 5)
		snap, err := m.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		enc := snap.Encode()
		if _, err := DecodeSnapshot(enc[:len(enc)/2]); !errors.Is(err, snapbin.ErrCorrupt) {
			t.Fatalf("truncated snapshot: %v, want ErrCorrupt", err)
		}
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/3] ^= 0x40
		if _, err := DecodeSnapshot(flipped); !errors.Is(err, snapbin.ErrCorrupt) {
			t.Fatalf("bit-flipped snapshot: %v, want ErrCorrupt", err)
		}
		if _, err := DecodeSnapshot(nil); !errors.Is(err, snapbin.ErrCorrupt) {
			t.Fatalf("empty snapshot: %v, want ErrCorrupt", err)
		}
	})

	t.Run("mid-quantum refusal", func(t *testing.T) {
		m := buildDiffMachine(t, sc, EngineSeq, 5)
		m.running[0] = m.Threads()[0].ID
		if _, err := m.Snapshot(ctx); !errors.Is(err, errs.ErrThreadRunning) {
			t.Fatalf("mid-quantum snapshot: %v, want ErrThreadRunning", err)
		}
		m.running[0] = -1
	})

	t.Run("provider name rules", func(t *testing.T) {
		m := buildDiffMachine(t, sc, EngineSeq, 5)
		p := StateProvider{
			Save:    func(*snapbin.Enc) error { return nil },
			Restore: func(*snapbin.Dec) error { return nil },
		}
		if err := m.RegisterStateProvider("cache", p); !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("reserved name: %v, want ErrBadConfig", err)
		}
		if err := m.RegisterStateProvider("x", p); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterStateProvider("x", p); !errors.Is(err, errs.ErrAlreadyInstalled) {
			t.Fatalf("duplicate name: %v, want ErrAlreadyInstalled", err)
		}
	})
}

// TestRestoreMachineRefusesForeignSeed: a snapshot belongs to the run
// seed it was taken under. Restoring it onto a machine configured with
// another seed is refused, whether the workload is rebuilt with the
// snapshot's seed or with the machine's, instead of silently continuing
// the snapshot's run under the wrong name.
func TestRestoreMachineRefusesForeignSeed(t *testing.T) {
	const seed, foreign = 5, 6
	sc := diffTopologies()[0]
	m := buildDiffMachine(t, sc, EngineSeq, seed)
	if err := m.RunRoundsCtx(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, installSeed := range []int64{seed, foreign} {
		if _, err := RestoreMachine(diffConfig(sc, EngineSeq, foreign), snap, diffInstall(sc, installSeed)); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("restore of a seed-%d snapshot onto a seed-%d machine (workload seed %d): %v, want ErrBadConfig",
				seed, foreign, installSeed, err)
		}
	}
	if _, err := RestoreMachine(diffConfig(sc, EngineSeq, seed), snap, diffInstall(sc, seed)); err != nil {
		t.Errorf("restore onto the snapshot's own seed: %v", err)
	}
}

// FuzzSnapshotDecode pins two properties of the decoder: arbitrary bytes
// never panic it, and any input it accepts re-encodes to the exact bytes
// it was decoded from.
func FuzzSnapshotDecode(f *testing.F) {
	sc := diffTopologies()[0]
	m, err := NewMachine(diffConfig(sc, EngineSeq, 17))
	if err != nil {
		f.Fatal(err)
	}
	if err := diffInstall(sc, 17)(m); err != nil {
		f.Fatal(err)
	}
	if err := m.RunRoundsCtx(context.Background(), 4); err != nil {
		f.Fatal(err)
	}
	snap, err := m.Snapshot(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	valid := snap.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("accepted snapshot does not re-encode to its input (%d bytes)", len(data))
		}
	})
}
