package workloads

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"threadcluster/internal/memory"
)

func TestBTreeEmpty(t *testing.T) {
	tr, err := NewBTree(memory.NewDefaultArena())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 || tr.Nodes() != 1 || tr.Height() != 1 {
		t.Errorf("empty tree: size=%d nodes=%d height=%d", tr.Size(), tr.Nodes(), tr.Height())
	}
	trace, found := tr.Lookup(nil, 42)
	if found {
		t.Error("empty tree should not find anything")
	}
	if len(trace) == 0 {
		t.Error("even a failing lookup touches the root")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBTreeNeedsArena(t *testing.T) {
	if _, err := NewBTree(nil); err == nil {
		t.Error("nil arena should fail")
	}
}

func TestBTreeInsertLookup(t *testing.T) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	keys := []uint64{50, 20, 80, 10, 30, 70, 90, 5, 15, 25, 35}
	for _, k := range keys {
		if _, err := tr.Insert(nil, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Size() != len(keys) {
		t.Errorf("size = %d, want %d", tr.Size(), len(keys))
	}
	for _, k := range keys {
		if _, found := tr.Lookup(nil, k); !found {
			t.Errorf("key %d not found", k)
		}
	}
	if _, found := tr.Lookup(nil, 999); found {
		t.Error("absent key found")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBTreeDuplicatesIgnored(t *testing.T) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	for i := 0; i < 5; i++ {
		if _, err := tr.Insert(nil, 7); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Size() != 1 {
		t.Errorf("size = %d, want 1 (duplicates ignored)", tr.Size())
	}
}

func TestBTreeGrowsAndStaysBalanced(t *testing.T) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Int63n(1<<30)) + 1
		if _, err := tr.Insert(nil, k); err != nil {
			t.Fatal(err)
		}
		inserted[k] = true
	}
	if tr.Size() != len(inserted) {
		t.Errorf("size = %d, want %d", tr.Size(), len(inserted))
	}
	if tr.Height() < 3 {
		t.Errorf("5000 keys should grow past height 2, got %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := range inserted {
		if _, found := tr.Lookup(nil, k); !found {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestBTreeSequentialInsert(t *testing.T) {
	// Sequential insertion is the adversarial case for naive split logic.
	tr, _ := NewBTree(memory.NewDefaultArena())
	for k := uint64(1); k <= 2000; k++ {
		if _, err := tr.Insert(nil, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2000; k++ {
		if _, found := tr.Lookup(nil, k); !found {
			t.Fatalf("sequential key %d lost", k)
		}
	}
}

func TestBTreeTracesStayInsideNodes(t *testing.T) {
	arena := memory.NewDefaultArena()
	before := arena.Used()
	tr, _ := NewBTree(arena)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Int63n(1<<20)) + 1
		trace, err := tr.Insert(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range trace {
			if uint64(a) < uint64(memory.DefaultArenaBase)+before {
				t.Fatalf("trace address %#x below arena", uint64(a))
			}
		}
	}
	// Lookup traces grow with height and stay modest.
	trace, _ := tr.Lookup(nil, 12345)
	if len(trace) == 0 || len(trace) > 4*tr.Height() {
		t.Errorf("lookup trace length %d implausible for height %d", len(trace), tr.Height())
	}
}

func TestBTreeRootLineIsHot(t *testing.T) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		_, _ = tr.Insert(nil, uint64(rng.Int63n(1<<20))+1)
	}
	root := tr.RootLine()
	trace, _ := tr.Lookup(nil, 555)
	if memory.LineOf(trace[0]) != memory.LineOf(root) {
		t.Error("every lookup must start at the root line")
	}
}

// Property: after any sequence of inserts, invariants hold and every
// inserted key is found.
func TestBTreePropertyInsertFind(t *testing.T) {
	f := func(raw []uint16) bool {
		tr, err := NewBTree(memory.NewDefaultArena())
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool)
		for _, r := range raw {
			k := uint64(r) + 1
			if _, err := tr.Insert(nil, k); err != nil {
				return false
			}
			seen[k] = true
		}
		if tr.Size() != len(seen) {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for k := range seen {
			if _, found := tr.Lookup(nil, k); !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeAppendsToCallerBuffer: Lookup and Insert extend the slice they
// are given (the strconv.Append* contract) — what is already in it stays,
// and a reused buffer yields the trace a fresh one would.
func TestBTreeAppendsToCallerBuffer(t *testing.T) {
	a, _ := NewBTree(memory.NewDefaultArena())
	b, _ := NewBTree(memory.NewDefaultArena())
	rng := rand.New(rand.NewSource(4))
	const sentinel = memory.Addr(0xdead)
	buf := make([]memory.Addr, 0, 64)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Int63n(1<<12)) + 1 // small key space: duplicates and hits
		var fresh, reused []memory.Addr
		var err error
		if i%3 == 0 {
			fresh, _ = a.Lookup(nil, k)
			reused, _ = b.Lookup(append(buf[:0], sentinel), k)
		} else {
			if fresh, err = a.Insert(nil, k); err != nil {
				t.Fatal(err)
			}
			if reused, err = b.Insert(append(buf[:0], sentinel), k); err != nil {
				t.Fatal(err)
			}
		}
		if reused[0] != sentinel {
			t.Fatalf("op %d overwrote the caller's prefix", i)
		}
		if len(reused)-1 != len(fresh) {
			t.Fatalf("op %d: reused buffer got %d addresses, fresh %d", i, len(reused)-1, len(fresh))
		}
		for j, addr := range fresh {
			if reused[j+1] != addr {
				t.Fatalf("op %d: trace[%d] = %#x with a reused buffer, %#x fresh", i, j, uint64(reused[j+1]), uint64(addr))
			}
		}
	}
}

// TestBTreeChildArrayOnlyInInteriorNodes: a leaf carries no child array
// and an interior node always has one — the layout that puts leaves in a
// smaller allocation — and CheckInvariants refuses a tree that breaks
// either rule.
func TestBTreeChildArrayOnlyInInteriorNodes(t *testing.T) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	for k := uint64(1); k <= 500; k++ {
		if _, err := tr.Insert(nil, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the tree needs interior nodes below the root", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if size := unsafe.Sizeof(btreeNode{}); size > 160 {
		t.Errorf("a node is %d bytes, over the 160-byte size class", size)
	}
	leaf := tr.root
	for !leaf.leaf {
		leaf = leaf.children[0]
	}
	leaf.children = new([BTreeOrder]*btreeNode)
	if err := tr.CheckInvariants(); err == nil {
		t.Error("a leaf with a child array passed CheckInvariants")
	}
	leaf.children = nil
	interior := tr.root.children[0]
	saved := interior.children
	interior.children = nil
	if err := tr.CheckInvariants(); err == nil {
		t.Error("an interior node without a child array passed CheckInvariants")
	}
	interior.children = saved
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
