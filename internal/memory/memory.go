// Package memory models the simulated 64-bit virtual address space that
// workload threads access and that the cache hierarchy caches.
//
// The unit of sharing throughout the system is the L2 cache line: the paper
// uses the Power5's 128-byte line as the shMap region size because it is
// "the largest region size with which no false-positives can occur"
// (Section 4.3.1). All address arithmetic here is in terms of that line
// size.
package memory

import "fmt"

// Addr is a simulated virtual address.
type Addr uint64

// LineSize is the cache-line size in bytes (Power5 L2: 128 bytes).
const LineSize = 128

// LineShift is log2(LineSize).
const LineShift = 7

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// LineIndex returns the line number of a (address divided by line size).
func LineIndex(a Addr) uint64 { return uint64(a) >> LineShift }

// SameLine reports whether two addresses fall on the same cache line.
func SameLine(a, b Addr) bool { return LineOf(a) == LineOf(b) }

// Region is a contiguous range of the simulated address space.
type Region struct {
	Base Addr
	Size uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Lines returns the number of cache lines the region spans, assuming the
// base is line-aligned.
func (r Region) Lines() uint64 { return (r.Size + LineSize - 1) / LineSize }

// Overlaps reports whether two regions share any byte.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// At returns the address at byte offset off into the region. It panics if
// off is out of bounds; regions are fixed-size allocations and indexing
// past the end is a programming error in the workload generator.
func (r Region) At(off uint64) Addr {
	if off >= r.Size {
		panic(fmt.Sprintf("memory: offset %d out of bounds for region of %d bytes", off, r.Size))
	}
	return r.Base + Addr(off)
}

func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x) %d bytes", uint64(r.Base), uint64(r.End()), r.Size)
}

// Arena is a bump allocator over the simulated address space. Workloads use
// it to lay out their private chunks, shared scoreboards, B-tree nodes,
// database tables and so on, exactly as a process heap would. Allocation
// never reuses addresses, which keeps every allocated region distinct for
// the lifetime of a simulation — the property the shMap filter relies on.
//
// An arena is, in effect, a machine's physical address space: the cache
// hierarchy is physically indexed and has no address-space identifiers.
// Every workload installed on one machine must therefore allocate from
// the same arena (or from arenas with disjoint ranges, as NodeArenas
// builds); two default arenas would alias the same lines and manufacture
// phantom sharing between unrelated workloads.
//
// Arena is not safe for concurrent use; simulations are single-goroutine.
type Arena struct {
	base  Addr
	next  Addr
	limit Addr
}

// DefaultArenaBase is where fresh arenas start allocating. It is nonzero so
// that the zero Addr can never alias a real allocation.
const DefaultArenaBase Addr = 0x10000

// DefaultArenaLimit bounds the address space of a default arena (1 TiB),
// far larger than any simulated workload needs.
const DefaultArenaLimit Addr = 1 << 40

// NewArena returns an arena allocating from base up to limit.
func NewArena(base, limit Addr) (*Arena, error) {
	if base >= limit {
		return nil, fmt.Errorf("memory: arena base %#x must precede limit %#x", uint64(base), uint64(limit))
	}
	return &Arena{base: base, next: base, limit: limit}, nil
}

// NewDefaultArena returns an arena spanning the default address range.
func NewDefaultArena() *Arena {
	a, err := NewArena(DefaultArenaBase, DefaultArenaLimit)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return a
}

// Alloc reserves size bytes aligned to align (which must be a power of
// two; 0 means line-aligned) and returns the region. It returns an error
// when the arena is exhausted.
func (a *Arena) Alloc(size uint64, align uint64) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("memory: zero-size allocation")
	}
	if align == 0 {
		align = LineSize
	}
	if align&(align-1) != 0 {
		return Region{}, fmt.Errorf("memory: alignment %d is not a power of two", align)
	}
	base := (uint64(a.next) + align - 1) &^ (align - 1)
	if base+size > uint64(a.limit) || base+size < base {
		return Region{}, fmt.Errorf("memory: arena exhausted allocating %d bytes", size)
	}
	a.next = Addr(base + size)
	return Region{Base: Addr(base), Size: size}, nil
}

// MustAlloc is Alloc for workload setup code where exhaustion means the
// experiment configuration itself is broken.
func (a *Arena) MustAlloc(size uint64, align uint64) Region {
	r, err := a.Alloc(size, align)
	if err != nil {
		panic(err)
	}
	return r
}

// Used returns the number of bytes handed out so far (including alignment
// padding).
func (a *Arena) Used() uint64 { return uint64(a.next) - uint64(a.base) }
