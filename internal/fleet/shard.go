package fleet

import (
	"strconv"

	"threadcluster/internal/experiments"
)

// Shard is one unit of fleet dispatch: the grid cells whose canonical
// keys hash onto one slot of the fixed virtual-shard ring. The ring
// size is a property of the job (Options.VirtualShards), never of the
// fleet, so the same spec always partitions into the same shards no
// matter how many workers are registered, which workers are alive, or
// in what order results arrive — the first half of the digest argument
// (DESIGN.md §10).
type Shard struct {
	// Slot is the shard's position on the virtual ring.
	Slot int
	// Indices are the full-grid cell indices hashed onto the slot,
	// ascending.
	Indices []int
}

// Partition hashes every cell onto the virtual ring and returns the
// non-empty shards in slot order. Cells keep their full-grid indices;
// a shard-scoped JobSpec carries exactly these indices so the worker
// derives the same per-cell names and seeds the whole grid would.
func Partition(cells []experiments.GridCell, virtualShards int) []Shard {
	slots := make([][]int, virtualShards)
	for i, cell := range cells {
		s := int(hash64(cellKey(cell)) % uint64(virtualShards))
		slots[s] = append(slots[s], i)
	}
	shards := make([]Shard, 0, len(slots))
	for slot, idx := range slots {
		if len(idx) > 0 {
			shards = append(shards, Shard{Slot: slot, Indices: idx})
		}
	}
	return shards
}

// cellKey is the canonical identity a cell is hashed by: its grid name
// plus its derived seed. Both are pure functions of the normalized
// spec, so the key — and therefore the shard layout — is too.
func cellKey(c experiments.GridCell) string {
	return c.Name() + "#" + strconv.FormatInt(c.Seed, 10)
}

// hash64 is FNV-1a: stable across processes and Go versions (unlike
// maphash), cheap, and good enough to spread cells over the ring.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// rendezvousScore ranks worker name for shard slot: the coordinator
// leases a slot to the live worker with the highest score (highest
// random weight), so assignment is stable under fleet resizes — only
// slots whose top-ranked worker changed move, the classic
// rendezvous-hashing property.
func rendezvousScore(slot int, name string) uint64 {
	return hash64(strconv.Itoa(slot) + "|" + name)
}
