package clustering

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
)

// SaveState appends the vector's counters to the encoder.
func (m *ShMap) SaveState(e *snapbin.Enc) {
	e.Blob(m.counters)
}

// RestoreState overwrites the counters with a state saved by SaveState.
// The vector must have been built with the same entry count.
func (m *ShMap) RestoreState(d *snapbin.Dec) error {
	b := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	if len(b) != len(m.counters) {
		return fmt.Errorf("clustering: snapshot shMap has %d entries, built with %d: %w",
			len(b), len(m.counters), errs.ErrBadConfig)
	}
	copy(m.counters, b)
	return nil
}

// SaveState appends the filter's complete mutable state: every claimed
// entry (in ascending entry order — the canonical order) with its line
// and owning thread, plus the accept/reject counters. The per-thread
// ownership counts are derivable from the entries and are not encoded.
func (f *Filter) SaveState(e *snapbin.Enc) {
	e.U32(uint32(len(f.lines)))
	claimed := 0
	for _, t := range f.taken {
		if t {
			claimed++
		}
	}
	e.U32(uint32(claimed))
	for i := range f.taken {
		if !f.taken[i] {
			continue
		}
		e.U32(uint32(i))
		e.U64(uint64(f.lines[i]))
		e.I64(int64(f.owner[i]))
	}
	e.U64(f.admits)
	e.U64(f.drops)
}

// RestoreState overwrites the filter's state with a state saved by
// SaveState. The filter must have been built with the same entry count
// and quota; each restored claim is validated to hash to its entry, and
// the per-thread ownership counts are rebuilt.
func (f *Filter) RestoreState(d *snapbin.Dec) error {
	if n := int(d.U32()); d.Err() == nil && n != len(f.lines) {
		return fmt.Errorf("clustering: snapshot filter has %d entries, built with %d: %w",
			n, len(f.lines), errs.ErrBadConfig)
	}
	claimed := d.Count(20)
	lines := make([]memory.Addr, len(f.lines))
	taken := make([]bool, len(f.lines))
	owner := make([]ThreadKey, len(f.lines))
	owned := make(map[ThreadKey]int)
	prev := -1
	for i := 0; i < claimed; i++ {
		idx := int(d.U32())
		line := memory.Addr(d.U64())
		tid := ThreadKey(d.I64())
		if d.Err() != nil {
			return d.Err()
		}
		if idx <= prev || idx >= len(f.lines) {
			return fmt.Errorf("clustering: snapshot filter entry index %d out of order: %w", idx, snapbin.ErrCorrupt)
		}
		prev = idx
		if line != memory.LineOf(line) || HashLine(line, len(f.lines)) != idx {
			return fmt.Errorf("clustering: snapshot filter line %#x does not hash to entry %d: %w",
				uint64(line), idx, snapbin.ErrCorrupt)
		}
		taken[idx] = true
		lines[idx] = line
		owner[idx] = tid
		owned[tid]++
	}
	admits := d.U64()
	drops := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	for tid, n := range owned {
		if n > f.quota {
			return fmt.Errorf("clustering: snapshot filter thread %d claims %d entries over quota %d: %w",
				int(tid), n, f.quota, snapbin.ErrCorrupt)
		}
	}
	f.lines = lines
	f.taken = taken
	f.owner = owner
	f.owned = owned
	f.admits = admits
	f.drops = drops
	return nil
}
