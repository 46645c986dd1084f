// Package workloads reproduces the paper's four evaluation workloads as
// memory-reference generators over the simulated address space:
//
//   - the synthetic scoreboard microbenchmark of Section 5.3.1;
//   - VolanoMark, an instant-messaging chat server with two designated
//     threads per connection (Section 5.3.2);
//   - SPECjbb2000, warehouses stored as B-tree variants with a fixed set
//     of threads per warehouse (Section 5.3.3);
//   - RUBiS, an online-auction OLTP database with two instances inside
//     one server process (Section 5.3.4).
//
// What matters for thread clustering is the *pattern* of accesses — which
// threads read and write which cache lines — so each generator allocates
// its data structures (scoreboards, room buffers, B-trees, tables) from a
// shared arena and emits the address streams those structures would
// produce. The SPECjbb and RUBiS workloads walk a real B-tree implemented
// over the simulated address space rather than a hand-waved distribution.
package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
)

// BTreeOrder is the fan-out of the simulated B-tree: each node holds up to
// BTreeOrder-1 keys and BTreeOrder children.
const BTreeOrder = 16

// btreeNodeBytes is the simulated footprint of one node: key array plus
// child pointers, rounded to cache lines. 4 lines = 512 bytes.
const btreeNodeBytes = 4 * memory.LineSize

// BTree is a B-tree laid out in the simulated address space. It stores
// keys only (the workloads don't need values) and reports, for every
// operation, the exact sequence of simulated addresses the operation
// touched, so a workload generator can replay them as memory references.
//
// This is the warehouse structure of SPECjbb ("stored internally as a
// B-tree variant", Section 5.3.3) and the index structure of the RUBiS
// database tables.
type BTree struct {
	arena *memory.Arena
	root  *btreeNode
	size  int
	nodes int
}

// btreeNode holds its keys and children inline, so a node is one host
// allocation and a search reads the node itself instead of chasing two
// slice headers per level. Only keys[:nkeys] and children[:nkeys+1] (for
// an interior node) are meaningful.
type btreeNode struct {
	region   memory.Region
	keys     [BTreeOrder - 1]uint64
	children [BTreeOrder]*btreeNode
	nkeys    int
	leaf     bool
}

// NewBTree creates an empty tree allocating nodes from the arena.
func NewBTree(arena *memory.Arena) (*BTree, error) {
	if arena == nil {
		return nil, fmt.Errorf("workloads: btree needs an arena: %w", errs.ErrBadConfig)
	}
	t := &BTree{arena: arena}
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *BTree) newNode(leaf bool) (*btreeNode, error) {
	r, err := t.arena.Alloc(btreeNodeBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	t.nodes++
	return &btreeNode{region: r, leaf: leaf}, nil
}

// Size returns the number of keys stored.
func (t *BTree) Size() int { return t.size }

// Nodes returns the number of allocated nodes.
func (t *BTree) Nodes() int { return t.nodes }

// RootLine returns the first line of the root node — the hottest line of
// the whole structure.
func (t *BTree) RootLine() memory.Addr { return t.root.region.Base }

// search returns the first slot whose key is not below key.
func (n *btreeNode) search(key uint64) int {
	for i, k := range n.keys[:n.nkeys] {
		if key <= k {
			return i
		}
	}
	return n.nkeys
}

// touchKeys appends the addresses a key scan of the node touches: the
// node header line plus the line holding the scanned key slot.
func (n *btreeNode) touchKeys(trace []memory.Addr, slot int) []memory.Addr {
	header := n.region.Base
	// Keys are 8 bytes each, stored after a 16-byte header.
	off := uint64(16 + 8*slot)
	if off >= n.region.Size {
		off = n.region.Size - 8
	}
	trace = append(trace, header)
	if keyLine := memory.LineOf(n.region.At(off)); keyLine != memory.LineOf(header) {
		trace = append(trace, keyLine)
	}
	return trace
}

// Lookup finds a key, appends the address trace of the search path to
// trace and returns the extended slice (the strconv.Append* idiom: pass
// buf[:0] to reuse a buffer, nil for a fresh trace) and whether the key
// exists.
func (t *BTree) Lookup(trace []memory.Addr, key uint64) ([]memory.Addr, bool) {
	n := t.root
	for {
		i := n.search(key)
		trace = n.touchKeys(trace, i)
		if i < n.nkeys && n.keys[i] == key {
			return trace, true
		}
		if n.leaf {
			return trace, false
		}
		n = n.children[i]
	}
}

// Insert adds a key (duplicates are ignored), appends the address trace of
// the insertion — the final leaf write included — to trace and returns the
// extended slice, as Lookup does. The error is non-nil only when the arena
// is exhausted.
func (t *BTree) Insert(trace []memory.Addr, key uint64) ([]memory.Addr, error) {
	if t.root.nkeys == maxKeys {
		// Split the root: tree grows one level.
		newRoot, err := t.newNode(false)
		if err != nil {
			return trace, err
		}
		newRoot.children[0] = t.root
		if trace, err = t.splitChild(trace, newRoot, 0); err != nil {
			return trace, err
		}
		t.root = newRoot
	}
	return t.insertNonFull(trace, t.root, key)
}

const maxKeys = BTreeOrder - 1

func (t *BTree) insertNonFull(trace []memory.Addr, n *btreeNode, key uint64) ([]memory.Addr, error) {
	for {
		i := n.search(key)
		trace = n.touchKeys(trace, i)
		if i < n.nkeys && n.keys[i] == key {
			return trace, nil // duplicate
		}
		if n.leaf {
			copy(n.keys[i+1:n.nkeys+1], n.keys[i:n.nkeys])
			n.keys[i] = key
			n.nkeys++
			t.size++
			// The leaf write itself.
			return n.touchKeys(trace, i), nil
		}
		if n.children[i].nkeys == maxKeys {
			var err error
			if trace, err = t.splitChild(trace, n, i); err != nil {
				return trace, err
			}
			if key > n.keys[i] {
				i++
			} else if key == n.keys[i] {
				return trace, nil
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child n.children[i], promoting its median key
// into n.
func (t *BTree) splitChild(trace []memory.Addr, n *btreeNode, i int) ([]memory.Addr, error) {
	child := n.children[i]
	mid := child.nkeys / 2
	midKey := child.keys[mid]

	right, err := t.newNode(child.leaf)
	if err != nil {
		return trace, err
	}
	right.nkeys = copy(right.keys[:], child.keys[mid+1:child.nkeys])
	if !child.leaf {
		copy(right.children[:], child.children[mid+1:child.nkeys+1])
	}
	child.nkeys = mid

	copy(n.keys[i+1:n.nkeys+1], n.keys[i:n.nkeys])
	n.keys[i] = midKey
	copy(n.children[i+2:n.nkeys+2], n.children[i+1:n.nkeys+1])
	n.children[i+1] = right
	n.nkeys++

	// Splits touch all three nodes.
	return append(trace, child.region.Base, right.region.Base, n.region.Base), nil
}

// Height returns the tree height (1 for a lone leaf root).
func (t *BTree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// CheckInvariants verifies B-tree structural invariants: key ordering
// within nodes, separator correctness, node fill bounds, and uniform leaf
// depth. Tests call it after bulk insertions.
func (t *BTree) CheckInvariants() error {
	leafDepth := -1
	var walk func(n *btreeNode, depth int, lo, hi *uint64) error
	walk = func(n *btreeNode, depth int, lo, hi *uint64) error {
		if n.nkeys > maxKeys {
			return fmt.Errorf("btree: node has %d keys, max %d", n.nkeys, maxKeys)
		}
		for i := 0; i < n.nkeys; i++ {
			if lo != nil && n.keys[i] <= *lo {
				return fmt.Errorf("btree: key %d not above separator %d", n.keys[i], *lo)
			}
			if hi != nil && n.keys[i] >= *hi {
				return fmt.Errorf("btree: key %d not below separator %d", n.keys[i], *hi)
			}
			if i > 0 && n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: keys out of order: %d >= %d", n.keys[i-1], n.keys[i])
			}
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		for i, c := range n.children[:n.nkeys+1] {
			if c == nil {
				return fmt.Errorf("btree: interior node with %d keys lacks child %d", n.nkeys, i)
			}
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < n.nkeys {
				chi = &n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, nil, nil)
}
