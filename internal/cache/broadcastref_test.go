package cache

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// This file preserves the broadcast walk as it stood before Hierarchy.access
// and Lane.access were merged: access, snoop, invalidateOthers,
// downgradeChip, fillL1 and fillL2 are the parent commit's bodies verbatim
// (receiver renamed), on a type of their own that shares nothing with the
// product walk but SetAssoc — which aosref_test.go pins independently. The
// lockstep differential and the fuzz target run it against both modes of
// the unified walk, so folding the two ladders into one did not cost the
// oracle its independence.
type broadcastRef struct {
	topo topology.Topology
	lat  topology.Latencies
	l1   []*SetAssoc // indexed by global core id
	l2   []*SetAssoc // indexed by chip
	l3   []*SetAssoc // indexed by chip

	invalidationsSent uint64
	upgrades          uint64
	writebacks        uint64
	srcCounts         [NumSources]uint64
	srcCycles         [NumSources]uint64

	nodes memory.NodeMap
}

func newBroadcastRef(t testing.TB, topo topology.Topology, lat topology.Latencies, cfg HierarchyConfig) *broadcastRef {
	t.Helper()
	h := &broadcastRef{topo: topo, lat: lat}
	// The reference never runs on recycled slabs.
	for core := 0; core < topo.NumCores(); core++ {
		h.l1 = append(h.l1, freshCache(t, cfg.L1))
	}
	for chip := 0; chip < topo.Chips; chip++ {
		h.l2 = append(h.l2, freshCache(t, cfg.L2))
		h.l3 = append(h.l3, freshCache(t, cfg.L3))
	}
	return h
}

func (h *broadcastRef) SetNUMA(nodes memory.NodeMap)     { h.nodes = nodes }
func (h *broadcastRef) InvalidationsSent() uint64        { return h.invalidationsSent }
func (h *broadcastRef) Upgrades() uint64                 { return h.upgrades }
func (h *broadcastRef) Writebacks() uint64               { return h.writebacks }
func (h *broadcastRef) SourceCounts() [NumSources]uint64 { return h.srcCounts }
func (h *broadcastRef) SourceCycles() [NumSources]uint64 { return h.srcCycles }
func (h *broadcastRef) caches() (l1, l2, l3 []*SetAssoc) { return h.l1, h.l2, h.l3 }
func (h *broadcastRef) name() string                     { return "reference" }

func (h *Hierarchy) caches() (l1, l2, l3 []*SetAssoc) { return h.l1, h.l2, h.l3 }
func (h *Hierarchy) name() string                     { return "unified-" + h.mode.String() }

func (h *broadcastRef) Access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	res := h.access(cpu, addr, write)
	h.srcCounts[res.Source]++
	h.srcCycles[res.Source] += res.Cycles
	return res
}

// access is the broadcast reference implementation: every coherence
// action linearly probes all cores' L1s and all chips' L2/L3s.
func (h *broadcastRef) access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	line := memory.LineOf(addr)
	core := h.topo.CoreOf(cpu)
	chip := h.topo.ChipOf(cpu)

	// L1 probe.
	if st := h.l1[core].Lookup(line); st != Invalid {
		if write && st == Shared {
			// Write upgrade: invalidate every other copy in the machine.
			h.upgrades++
			h.invalidateOthers(line, core, chip)
			h.l1[core].SetState(line, Modified)
			h.l2[chip].SetState(line, Modified)
		} else if write {
			h.l1[core].SetState(line, Modified)
			h.l2[chip].SetState(line, Modified)
		}
		return AccessResult{Line: line, Source: SrcL1, Cycles: h.lat.L1Hit}
	}

	// L2 probe (chip-local).
	if st := h.l2[chip].Lookup(line); st != Invalid {
		newState := st
		if write {
			if st == Shared {
				h.upgrades++
				h.invalidateOthers(line, core, chip)
			}
			newState = Modified
			h.l2[chip].SetState(line, Modified)
		}
		h.fillL1(core, line, newState)
		return AccessResult{Line: line, Source: SrcL2, Cycles: h.lat.L2Hit, L1Miss: true}
	}

	// L3 probe (chip-local victim cache: a hit moves the line back to L2).
	if st := h.l3[chip].Peek(line); st != Invalid {
		h.l3[chip].Invalidate(line)
		newState := st
		if write {
			if st == Shared {
				h.upgrades++
				h.invalidateOthers(line, core, chip)
			}
			newState = Modified
		}
		h.fillL2(chip, line, newState)
		h.fillL1(core, line, newState)
		return AccessResult{Line: line, Source: SrcL3, Cycles: h.lat.L3Hit, L1Miss: true}
	}

	// Cross-chip snoop: another chip's L2, then another chip's L3.
	remoteChip, remoteSrc := h.snoop(line, chip)
	if remoteSrc != SrcMemory {
		var newState State
		if write {
			// Read-with-intent-to-modify: invalidate every remote copy.
			h.invalidateOthers(line, core, chip)
			newState = Modified
		} else {
			// Remote sharer keeps a Shared copy; we take one too.
			h.downgradeChip(line, remoteChip)
			newState = Shared
		}
		h.fillL2(chip, line, newState)
		h.fillL1(core, line, newState)
		lat := h.lat.RemoteL2
		if remoteSrc == SrcRemoteL3 {
			lat = h.lat.RemoteL3
		}
		return AccessResult{Line: line, Source: remoteSrc, Cycles: lat, L1Miss: true}
	}

	// Memory fill. Under NUMA configuration the line's home node decides
	// whether this is a local or remote memory access.
	st := Exclusive
	if write {
		st = Modified
	}
	h.fillL2(chip, line, st)
	h.fillL1(core, line, st)
	src, lat := SrcMemory, h.lat.Memory
	if h.nodes != nil && h.lat.RemoteMemory != 0 && h.nodes.NodeOf(line)%h.topo.Chips != chip {
		src, lat = SrcRemoteMemory, h.lat.RemoteMemory
	}
	return AccessResult{Line: line, Source: src, Cycles: lat, L1Miss: true}
}

// snoop looks for the line in any other chip's L2 or L3 and returns the
// owning chip and the source class, or SrcMemory if no chip holds it.
// L2s are probed across all chips before L3s, mirroring the point-to-point
// fabric's preference for the faster source.
func (h *broadcastRef) snoop(line memory.Addr, exceptChip int) (int, Source) {
	for chip := range h.l2 {
		if chip == exceptChip {
			continue
		}
		if h.l2[chip].Peek(line) != Invalid {
			return chip, SrcRemoteL2
		}
	}
	for chip := range h.l3 {
		if chip == exceptChip {
			continue
		}
		if h.l3[chip].Peek(line) != Invalid {
			return chip, SrcRemoteL3
		}
	}
	return -1, SrcMemory
}

// invalidateOthers removes every cached copy of the line outside the
// requesting core's L1 and the requesting chip's L2/L3.
func (h *broadcastRef) invalidateOthers(line memory.Addr, exceptCore, exceptChip int) {
	for core := range h.l1 {
		if core == exceptCore {
			continue
		}
		if h.l1[core].Invalidate(line) != Invalid {
			h.invalidationsSent++
		}
	}
	for chip := range h.l2 {
		if chip == exceptChip {
			continue
		}
		if h.l2[chip].Invalidate(line) != Invalid {
			h.invalidationsSent++
		}
		if h.l3[chip].Invalidate(line) != Invalid {
			h.invalidationsSent++
		}
	}
}

// downgradeChip moves the line to Shared in the given chip's caches (and
// the L1s of its cores), modelling a read snoop hit.
func (h *broadcastRef) downgradeChip(line memory.Addr, chip int) {
	if chip < 0 {
		return
	}
	h.l2[chip].Downgrade(line)
	h.l3[chip].Downgrade(line)
	for core := chip * h.topo.CoresPerChip; core < (chip+1)*h.topo.CoresPerChip; core++ {
		h.l1[core].Downgrade(line)
	}
}

// fillL1 inserts the line into a core's L1. L1 evictions are clean drops:
// the L2 above it is (approximately) inclusive, so the data survives.
func (h *broadcastRef) fillL1(core int, line memory.Addr, st State) {
	h.l1[core].Insert(line, st)
}

// fillL2 inserts the line into a chip's L2, spilling any eviction into the
// chip's victim L3 and maintaining L1 inclusion for evicted lines.
func (h *broadcastRef) fillL2(chip int, line memory.Addr, st State) {
	evicted, evictedState, didEvict := h.l2[chip].Insert(line, st)
	if !didEvict {
		return
	}
	// Victim L3 receives the evicted line; what the L3 itself evicts
	// leaves the cache system, and dirty victims go back to memory.
	if _, l3State, l3Evict := h.l3[chip].Insert(evicted, evictedState); l3Evict {
		if l3State == Modified {
			h.writebacks++
		}
	}
	// Inclusion: an L2 eviction must purge the chip's L1s so a remote
	// chip's snoop (which only probes L2/L3) can never miss a live copy.
	for c := chip * h.topo.CoresPerChip; c < (chip+1)*h.topo.CoresPerChip; c++ {
		h.l1[c].Invalidate(evicted)
	}
}

// coherent is what the three-way differential drives and compares: the
// reference walk and a Hierarchy in either mode.
type coherent interface {
	Access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult
	SetNUMA(memory.NodeMap)
	SourceCounts() [NumSources]uint64
	SourceCycles() [NumSources]uint64
	InvalidationsSent() uint64
	Upgrades() uint64
	Writebacks() uint64
	caches() (l1, l2, l3 []*SetAssoc)
	name() string
}

// sameCaches fails unless every cache of got is bit-for-bit the cache of
// want: tags, MESI states, way positions, LRU stamps and statistics.
func sameCaches(t *testing.T, want, got coherent) {
	t.Helper()
	w1, w2, w3 := want.caches()
	g1, g2, g3 := got.caches()
	for lvl, pair := range [][2][]*SetAssoc{{w1, g1}, {w2, g2}, {w3, g3}} {
		for i := range pair[0] {
			we, ge := &snapbin.Enc{}, &snapbin.Enc{}
			saveCache(we, pair[0][i])
			saveCache(ge, pair[1][i])
			if !bytes.Equal(we.Bytes(), ge.Bytes()) {
				t.Fatalf("L%d[%d] contents diverged between %s and %s", lvl+1, i, want.name(), got.name())
			}
		}
	}
}

// TestOneAccessWalk parses the package's non-test files and requires
// exactly one function that both probes an L1 (Lookup, or lookupWay as
// Lane.access does) and probes an L3 (Peek, or the Invalidate that
// Lane.access takes a victim hit with) — the signature of a walk down the
// ladder — so a second copy of the walk cannot grow back beside
// Lane.access, whichever probe calls it is written with.
func TestOneAccessWalk(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// calls reports whether fn calls <x>.<level>[...].<method>(...) for
	// any of the methods.
	calls := func(fn *ast.FuncDecl, level string, methods ...string) bool {
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(methods, sel.Sel.Name) {
				return true
			}
			if idx, ok := sel.X.(*ast.IndexExpr); ok {
				if cache, ok := idx.X.(*ast.SelectorExpr); ok && cache.Sel.Name == level {
					found = true
				}
			}
			return true
		})
		return found
	}
	var walks []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil &&
					calls(fn, "l1", "Lookup", "lookupWay") && calls(fn, "l3", "Peek", "Invalidate") {
					walks = append(walks, fn.Name.Name)
				}
			}
		}
	}
	if len(walks) != 1 {
		t.Fatalf("want exactly one access walk in the package, found %d: %v", len(walks), walks)
	}
}
