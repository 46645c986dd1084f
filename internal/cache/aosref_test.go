package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"threadcluster/internal/memory"
)

// This file preserves the pre-slab array-of-structures SetAssoc verbatim
// as a test-only reference implementation. It serves two jobs: the
// differential test below pins the SoA rewrite to the exact AoS
// semantics (hit/miss results, LRU victim choice, statistics), and the
// BenchmarkSetAssocHot pair measures the slab layout's single-thread
// win, guarded in BENCH_sim.json (soa-vs-aos-hotpath, min_ratio 1.2).

type aosWay struct {
	tag   memory.Addr
	state State
	lru   uint64
}

type aosSetAssoc struct {
	cfg     Config
	sets    [][]aosWay
	stamp   uint64
	stats   Stats
	setMask uint64
	pow2    bool
}

func newAoSSetAssoc(cfg Config) (*aosSetAssoc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	sets := make([][]aosWay, n)
	backing := make([]aosWay, n*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	c := &aosSetAssoc{cfg: cfg, sets: sets}
	if n&(n-1) == 0 {
		c.setMask = uint64(n) - 1
		c.pow2 = true
	}
	return c, nil
}

func (c *aosSetAssoc) setOf(line memory.Addr) []aosWay {
	if c.pow2 {
		return c.sets[memory.LineIndex(line)&c.setMask]
	}
	return c.sets[memory.LineIndex(line)%uint64(len(c.sets))]
}

func (c *aosSetAssoc) Lookup(line memory.Addr) State {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			c.stamp++
			set[i].lru = c.stamp
			c.stats.Hits++
			return set[i].state
		}
	}
	c.stats.Misses++
	return Invalid
}

func (c *aosSetAssoc) Peek(line memory.Addr) State {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			return set[i].state
		}
	}
	return Invalid
}

func (c *aosSetAssoc) Insert(line memory.Addr, st State) (evicted memory.Addr, evictedState State, didEvict bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := c.setOf(line)
	c.stamp++
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			set[i].state = st
			set[i].lru = c.stamp
			return 0, Invalid, false
		}
	}
	victim := -1
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		evicted, evictedState, didEvict = set[victim].tag, set[victim].state, true
		c.stats.Evictions++
	}
	set[victim] = aosWay{tag: line, state: st, lru: c.stamp}
	c.stats.Fills++
	return evicted, evictedState, didEvict
}

func (c *aosSetAssoc) Invalidate(line memory.Addr) State {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			st := set[i].state
			set[i].state = Invalid
			c.stats.Invalidations++
			return st
		}
	}
	return Invalid
}

func (c *aosSetAssoc) Downgrade(line memory.Addr) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			if set[i].state == Exclusive || set[i].state == Modified {
				set[i].state = Shared
			}
			return true
		}
	}
	return false
}

func (c *aosSetAssoc) SetState(line memory.Addr, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	set := c.setOf(line)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == line {
			set[i].state = st
			return true
		}
	}
	return false
}

func (c *aosSetAssoc) ForEachLine(f func(line memory.Addr, st State)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].state != Invalid {
				f(set[i].tag, set[i].state)
			}
		}
	}
}

func (c *aosSetAssoc) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].state != Invalid {
				n++
			}
		}
	}
	return n
}

// hotOp is one step of the deterministic mixed stream both layouts replay.
type hotOp struct {
	line memory.Addr
	kind uint8 // 0 = lookup (+insert on miss), 1 = invalidate, 2 = downgrade, 3 = peek
	st   State
}

// hotStream builds a deterministic miss-heavy probe stream: the working
// set is `spread` times the cache capacity so lookups regularly scan a
// full set and insertions regularly evict, which is exactly the loop the
// slab layout exists to make cheap.
func hotStream(cfg Config, spread, n int, seed int64) []hotOp {
	rng := rand.New(rand.NewSource(seed))
	lines := cfg.Sets() * cfg.Ways * spread
	ops := make([]hotOp, n)
	for i := range ops {
		op := hotOp{line: memory.Addr(rng.Intn(lines)) * memory.LineSize}
		switch {
		case i%64 == 63:
			op.kind = 1
		case i%128 == 100:
			op.kind = 2
		case i%32 == 17:
			op.kind = 3
		default:
			op.st = State(1 + rng.Intn(3)) // Shared / Exclusive / Modified
		}
		ops[i] = op
	}
	return ops
}

type lineState struct {
	line memory.Addr
	st   State
}

func dumpLines(fe func(func(memory.Addr, State))) []lineState {
	var out []lineState
	fe(func(line memory.Addr, st State) { out = append(out, lineState{line, st}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].line != out[j].line {
			return out[i].line < out[j].line
		}
		return out[i].st < out[j].st
	})
	return out
}

// TestSetAssocMatchesAoSReference replays the same deterministic stream
// through the slab-backed SetAssoc and the preserved AoS reference and
// requires identical results op by op — hit states, eviction victims
// (i.e. identical LRU order), invalidation/downgrade outcomes, and state
// rewrites of a hit line, both through the way lookupWay returned
// (setWayState, as the access walk does) and through SetState — plus
// identical statistics and final contents. Geometries cover the pow2
// mask path, the non-pow2 modulo path (the Power5 L2's 1638 sets) and
// the 1-set degenerate cache.
func TestSetAssocMatchesAoSReference(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 64 << 10, Ways: 4},            // 128 sets: pow2 mask path
		{SizeBytes: 2 << 20, Ways: 10},            // 1638 sets: non-pow2 modulo path
		{SizeBytes: 2 * memory.LineSize, Ways: 2}, // 1 set: degenerate mask
	}
	for _, cfg := range geoms {
		cfg := cfg
		t.Run(fmt.Sprintf("%dB-%dway", cfg.SizeBytes, cfg.Ways), func(t *testing.T) {
			soa, err := NewSetAssoc(cfg)
			if err != nil {
				t.Fatal(err)
			}
			aos, err := newAoSSetAssoc(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range hotStream(cfg, 3, 200000, 99) {
				switch op.kind {
				case 1:
					if g, w := soa.Invalidate(op.line), aos.Invalidate(op.line); g != w {
						t.Fatalf("op %d: Invalidate(%#x) = %v, AoS reference %v", i, uint64(op.line), g, w)
					}
				case 2:
					if g, w := soa.Downgrade(op.line), aos.Downgrade(op.line); g != w {
						t.Fatalf("op %d: Downgrade(%#x) = %v, AoS reference %v", i, uint64(op.line), g, w)
					}
				case 3:
					if g, w := soa.Peek(op.line), aos.Peek(op.line); g != w {
						t.Fatalf("op %d: Peek(%#x) = %v, AoS reference %v", i, uint64(op.line), g, w)
					}
				default:
					// Odd ops probe the way the access walk does: lookupWay,
					// then a state write to the way it hit, in place.
					// Even ops take Lookup and rewrite a hit with SetState.
					way, g := -1, Invalid
					if i%2 == 1 {
						way, g = soa.lookupWay(op.line)
					} else {
						g = soa.Lookup(op.line)
					}
					if w := aos.Lookup(op.line); g != w {
						t.Fatalf("op %d: Lookup(%#x) = %v, AoS reference %v", i, uint64(op.line), g, w)
					}
					if i%2 == 1 && (way < 0) != (g == Invalid) {
						t.Fatalf("op %d: lookupWay(%#x) = way %d with state %v", i, uint64(op.line), way, g)
					}
					if way >= 0 && soa.tags[way] != op.line {
						t.Fatalf("op %d: lookupWay(%#x) hit way %d, which holds %#x", i, uint64(op.line), way, uint64(soa.tags[way]))
					}
					switch {
					case g == Invalid:
						ge, gs, gd := soa.Insert(op.line, op.st)
						we, ws, wd := aos.Insert(op.line, op.st)
						if ge != we || gs != ws || gd != wd {
							t.Fatalf("op %d: Insert(%#x,%v) evicted (%#x,%v,%v), AoS reference (%#x,%v,%v)",
								i, uint64(op.line), op.st, uint64(ge), gs, gd, uint64(we), ws, wd)
						}
					case g == op.st:
					case way >= 0:
						soa.setWayState(way, op.st)
						aos.SetState(op.line, op.st)
					default:
						if !soa.SetState(op.line, op.st) || !aos.SetState(op.line, op.st) {
							t.Fatalf("op %d: SetState(%#x,%v) missed a line Lookup hit", i, uint64(op.line), op.st)
						}
					}
				}
			}
			if soa.Stats() != aos.stats {
				t.Fatalf("stats diverge: %+v vs AoS reference %+v", soa.Stats(), aos.stats)
			}
			if soa.Occupancy() != aos.Occupancy() {
				t.Fatalf("occupancy %d vs AoS reference %d", soa.Occupancy(), aos.Occupancy())
			}
			got, want := dumpLines(soa.ForEachLine), dumpLines(aos.ForEachLine)
			if len(got) != len(want) {
				t.Fatalf("content size %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("content[%d] = %+v, AoS reference %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// benchHotConfig is a 2 MiB 8-way cache (2048 sets, pow2): large enough
// that the slab arrays leave L1d and layout starts to matter, with a
// working set 4x capacity so most probes scan the whole set.
var benchHotConfig = Config{SizeBytes: 2 << 20, Ways: 8}

// benchHotMask keeps the replay index a mask, not a modulo, so harness
// overhead stays flat and the pair ratio measures the layouts themselves.
const benchHotMask = 1<<16 - 1

func benchHotOps() []hotOp { return hotStream(benchHotConfig, 4, benchHotMask+1, 7) }

// BenchmarkSetAssocHotSoA and BenchmarkSetAssocHotAoSRef replay the same
// deterministic miss-heavy stream through the two layouts; their ratio is
// the slab rewrite's measured single-thread win (soa-vs-aos-hotpath in
// BENCH_sim.json).
func BenchmarkSetAssocHotSoA(b *testing.B) {
	c, err := NewSetAssoc(benchHotConfig)
	if err != nil {
		b.Fatal(err)
	}
	ops := benchHotOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&benchHotMask]
		switch op.kind {
		case 1:
			c.Invalidate(op.line)
		case 2:
			c.Downgrade(op.line)
		case 3:
			c.Peek(op.line)
		default:
			if c.Lookup(op.line) == Invalid {
				c.Insert(op.line, op.st)
			}
		}
	}
}

func BenchmarkSetAssocHotAoSRef(b *testing.B) {
	c, err := newAoSSetAssoc(benchHotConfig)
	if err != nil {
		b.Fatal(err)
	}
	ops := benchHotOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&benchHotMask]
		switch op.kind {
		case 1:
			c.Invalidate(op.line)
		case 2:
			c.Downgrade(op.line)
		case 3:
			c.Peek(op.line)
		default:
			if c.Lookup(op.line) == Invalid {
				c.Insert(op.line, op.st)
			}
		}
	}
}
