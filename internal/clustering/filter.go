package clustering

import (
	"fmt"

	"threadcluster/internal/memory"
)

// ThreadKey identifies a thread in the clustering layer. It mirrors
// sched.ThreadID without importing the scheduler, keeping this package a
// pure-algorithms leaf.
type ThreadKey int

// Filter is the process-wide shMap filter of Section 4.3.1: a vector of
// cache-line addresses with the same number of entries as each thread's
// shMap. It implements spatial sampling and removes aliasing:
//
//   - each entry is claimed, immutably, by the first sampled remote access
//     that hashes to it (first-touch initialization);
//   - a later sample passes the filter only if its line address equals the
//     claimed address — hash collisions are discarded rather than aliased;
//   - to stop one thread from starving the rest, each thread may claim at
//     most a quota of entries (the paper's per-thread limit).
type Filter struct {
	lines  []memory.Addr
	taken  []bool
	owner  []ThreadKey
	quota  int
	owned  map[ThreadKey]int
	admits uint64
	drops  uint64
}

// NewFilter builds a filter with n entries where each thread may claim at
// most quota of them. quota <= 0 means no per-thread limit.
func NewFilter(n, quota int) (*Filter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("clustering: filter needs a positive entry count, got %d", n)
	}
	if quota <= 0 || quota > n {
		quota = n
	}
	return &Filter{
		lines: make([]memory.Addr, n),
		taken: make([]bool, n),
		owner: make([]ThreadKey, n),
		quota: quota,
		owned: make(map[ThreadKey]int),
	}, nil
}

// Len returns the number of entries.
func (f *Filter) Len() int { return len(f.lines) }

// Admit offers one sampled remote cache access to the filter. It returns
// the shMap entry index to increment and whether the sample passed.
func (f *Filter) Admit(tid ThreadKey, line memory.Addr) (int, bool) {
	line = memory.LineOf(line)
	idx := HashLine(line, len(f.lines))
	if !f.taken[idx] {
		if f.owned[tid] >= f.quota {
			f.drops++
			return 0, false
		}
		f.taken[idx] = true
		f.lines[idx] = line
		f.owner[idx] = tid
		f.owned[tid]++
		f.admits++
		return idx, true
	}
	if f.lines[idx] == line {
		f.admits++
		return idx, true
	}
	f.drops++
	return 0, false
}

// EntryLine returns the line claimed by entry i (0 if unclaimed).
func (f *Filter) EntryLine(i int) (memory.Addr, bool) {
	if i < 0 || i >= len(f.lines) || !f.taken[i] {
		return 0, false
	}
	return f.lines[i], true
}

// OwnedBy returns how many entries a thread has claimed.
func (f *Filter) OwnedBy(tid ThreadKey) int { return f.owned[tid] }

// Claimed returns how many entries are claimed in total.
func (f *Filter) Claimed() int {
	n := 0
	for _, t := range f.taken {
		if t {
			n++
		}
	}
	return n
}

// Admits returns how many samples the filter accepted.
func (f *Filter) Admits() uint64 { return f.admits }

// Reset clears all claims, e.g. when the engine re-enters the detection
// phase so "previously victimized threads obtain another chance"
// (Section 4.3.1).
func (f *Filter) Reset() {
	for i := range f.taken {
		f.taken[i] = false
		f.lines[i] = 0
		f.owner[i] = 0
	}
	f.owned = make(map[ThreadKey]int)
	f.admits, f.drops = 0, 0
}
