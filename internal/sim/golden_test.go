package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/snapbin"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata golden snapshots and trajectory digests from the current implementation")

// goldenScenario pins one machine composition whose snapshot bytes are
// committed under testdata/. The golden is captured after warm rounds;
// the digest file additionally pins the snapshot digest after extra more
// rounds, so a restore must not only decode the old bytes but continue
// the simulation on the exact same trajectory.
type goldenScenario struct {
	name   string
	sc     diffTopo
	caches cache.HierarchyConfig
	seed   int64
	warm   int
	extra  int
}

func goldenScenarios() []goldenScenario {
	small := cache.SmallConfig()
	small.Coherence = cache.CoherenceDirectory
	power5 := cache.Power5Config() // non-power-of-two L2 sets: pins the modulo set mapping
	power5.Coherence = cache.CoherenceDirectory
	return []goldenScenario{
		{name: "small-32way", sc: diffTopo{name: "power5-32way", topo: diffTopologies()[1].topo},
			caches: small, seed: 42, warm: 24, extra: 16},
		{name: "power5-720", sc: diffTopo{name: "open720", topo: diffTopologies()[0].topo},
			caches: power5, seed: 7, warm: 16, extra: 12},
	}
}

func buildGoldenMachine(t testing.TB, g goldenScenario, engine Engine) *Machine {
	t.Helper()
	cfg := diffConfig(g.sc, engine, g.seed)
	cfg.Caches = g.caches
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffInstall(g.sc, g.seed)(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenSnapshotCompat restores the committed golden snapshots and
// requires (a) the live machine to accept them, (b) an immediate
// re-snapshot to reproduce the committed bytes exactly — the encoder must
// emit the committed canonical form from whatever internal layout it now
// uses — and (c) the simulation to continue from the restore onto the
// committed trajectory digest. Regenerate with
// `go test ./internal/sim -run TestGoldenSnapshotCompat -update-golden`
// only when an intentional SnapshotVersion bump invalidates the format
// (last: v2, with TestGoldenTrajectory as the behaviour bridge).
func TestGoldenSnapshotCompat(t *testing.T) {
	for _, g := range goldenScenarios() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			snapPath := filepath.Join("testdata", "golden_"+g.name+".snap")
			digPath := filepath.Join("testdata", "golden_"+g.name+".digest")
			ctx := context.Background()

			if *updateGolden {
				m := buildGoldenMachine(t, g, EngineSeq)
				if err := m.RunRoundsCtx(ctx, g.warm); err != nil {
					t.Fatal(err)
				}
				snap, err := m.Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, snap.Encode(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := m.RunRoundsCtx(ctx, g.extra); err != nil {
					t.Fatal(err)
				}
				after, err := m.Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(digPath, []byte(after.Digest()+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			raw, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			wantDig, err := os.ReadFile(digPath)
			if err != nil {
				t.Fatalf("missing golden digest (regenerate with -update-golden): %v", err)
			}
			snap, err := DecodeSnapshot(raw)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			cfg := diffConfig(g.sc, EngineSeq, g.seed)
			cfg.Caches = g.caches
			m, err := RestoreMachine(cfg, snap, diffInstall(g.sc, g.seed))
			if err != nil {
				t.Fatalf("restore golden: %v", err)
			}
			resnap, err := m.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resnap.Encode(), raw) {
				t.Fatalf("re-snapshot after restore is not byte-identical to the committed golden (%d vs %d bytes); the encoder no longer emits the committed canonical form", len(resnap.Encode()), len(raw))
			}
			if err := m.RunRoundsCtx(ctx, g.extra); err != nil {
				t.Fatal(err)
			}
			after, err := m.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := after.Digest(), strings.TrimSpace(string(wantDig)); got != want {
				t.Fatalf("trajectory diverged after restoring the golden: digest %s, want %s", got, want)
			}
		})
	}
}

// TestGoldenOldVersionRefused pins what happens to files written before a
// version bump: a well-formed snapshot header of version 1 or 2 (magic,
// version, integrity digest — DecodeSnapshot checks them in the order
// integrity, magic, version) is refused outright with ErrBadConfig,
// naming the version found and the version this build reads — never
// half-decoded, never migrated. Version 2 has the current layout but was
// written under the math/rand generator: its RNG positions name a
// different stream, so accepting it would restore onto the wrong run.
func TestGoldenOldVersionRefused(t *testing.T) {
	for old := uint16(1); old < SnapshotVersion; old++ {
		e := &snapbin.Enc{}
		e.U64(snapshotMagic)
		e.U16(old)
		sum := sha256.Sum256(e.Bytes())
		_, err := DecodeSnapshot(append(e.Bytes(), sum[:]...))
		if !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("decoding a version-%d snapshot: %v, want ErrBadConfig", old, err)
		}
		want := fmt.Sprintf("version %d, this build reads %d", old, SnapshotVersion)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

var updateTrajectory = flag.Bool("update-trajectory", false,
	"rewrite the testdata golden_*.traj.sha256 pins from the current implementation (a behaviour change, not a format bump)")

// trajectoryHash fingerprints everything a cache-layer refactor must not
// move: every CPU's AccessResult stream so far, then the metrics
// registry snapshot (every counter the payload digests are built from).
func trajectoryHash(t *testing.T, m *Machine) string {
	t.Helper()
	h := sha256.New()
	var buf [25]byte
	for cpu, stream := range m.capture {
		binary.LittleEndian.PutUint64(buf[:8], uint64(cpu))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(len(stream)))
		h.Write(buf[:16])
		for _, r := range stream {
			binary.LittleEndian.PutUint64(buf[:8], uint64(r.Line))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(r.Source))
			binary.LittleEndian.PutUint64(buf[16:24], r.Cycles)
			buf[24] = 0
			if r.L1Miss {
				buf[24] = 1
			}
			h.Write(buf[:25])
		}
	}
	if err := m.SnapshotMetrics().WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTrajectory pins simulated behaviour independently of the
// snapshot format: for each golden scenario, in each coherence mode, the
// SHA-256 of the per-CPU access streams plus the registry snapshot after
// warm rounds and again after warm+extra rounds. The pins were recorded
// before the cache walks were merged and the snapshot format went to v2;
// unlike the .snap/.digest goldens they survive a SnapshotVersion bump,
// so they are the bridge that shows a format change moved no behaviour.
//
// Each scenario runs under both engines, twice over, and every machine is
// closed once read: all but the first are built on slabs a predecessor
// dirtied and released, and must still land on the pins and — in
// directory mode, the mode the .digest golden was recorded in — on the
// committed machine-snapshot digest. Recycled is fresh, word for word.
func TestGoldenTrajectory(t *testing.T) {
	ctx := context.Background()
	for _, g := range goldenScenarios() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+g.name+".traj.sha256")
			wantDig, err := os.ReadFile(filepath.Join("testdata", "golden_"+g.name+".digest"))
			if err != nil {
				t.Fatalf("missing golden digest: %v", err)
			}
			for pass := 1; pass <= 2; pass++ {
				for _, engine := range []Engine{EngineSeq, EngineParallel} {
					var got strings.Builder
					for _, mode := range []cache.CoherenceMode{cache.CoherenceDirectory, cache.CoherenceBroadcast} {
						gm := g
						gm.caches.Coherence = mode
						m := buildGoldenMachine(t, gm, engine)
						enableCapture(m)
						for _, rounds := range []int{g.warm, g.extra} {
							if err := m.RunRoundsCtx(ctx, rounds); err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&got, "%s %s@%d\n", trajectoryHash(t, m), mode, m.rounds)
						}
						if mode == cache.CoherenceDirectory {
							snap, err := m.Snapshot(ctx)
							if err != nil {
								t.Fatal(err)
							}
							if dig, want := snap.Digest(), strings.TrimSpace(string(wantDig)); dig != want {
								t.Fatalf("pass %d, %v: machine-snapshot digest %s, golden %s", pass, engine, dig, want)
							}
						}
						m.Close()
					}
					if *updateTrajectory {
						if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing trajectory pin: %v", err)
					}
					if got.String() != string(want) {
						t.Fatalf("pass %d, %v: simulated trajectory moved:\ngot:\n%swant:\n%s", pass, engine, got.String(), want)
					}
				}
			}
		})
	}
}
