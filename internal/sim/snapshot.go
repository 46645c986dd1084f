package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"threadcluster/internal/errs"
	"threadcluster/internal/sched"
	"threadcluster/internal/snapbin"
)

// SnapshotVersion is the current encoding version of MachineSnapshot.
// Decoders reject snapshots from a different version outright: the
// encoding is a direct image of internal component state, which does not
// migrate across versions. Version 2 dropped what the cache hierarchy
// stopped keeping — the per-chip L1 sharer tables and the hierarchy-level
// access counters — from the cache section (DESIGN.md §9). Version 3
// changed no layout: it marks the generator epoch (internal/rng became a
// counter-based SplitMix64), because a (seed, draws) pair written by a
// version-2 build names a position in a different stream.
const SnapshotVersion = 3

// snapshotMagic opens every encoded snapshot ("TCSNAP\0\0" little-endian).
const snapshotMagic uint64 = 0x0000_50414E534354

// Names of the fixed sections every snapshot carries, in encoding order.
// Additional sections follow, one per registered state provider, sorted
// by provider name.
const (
	sectionMachine = "machine"
	sectionSched   = "sched"
	sectionCache   = "cache"
	sectionPMU     = "pmu"
)

// MachineSnapshot is a versioned, deterministic serialization of a
// machine's complete mutable state, captured between scheduling rounds:
// the cache hierarchy with its coherence directory, every PMU and
// multiplexer, the scheduler, the machine clock and counters, per-thread
// metrics and generator cursors, and one opaque section per registered
// state provider (e.g. the thread-clustering engine).
//
// The encoding is canonical — identical logical state yields identical
// bytes regardless of the engine or GOMAXPROCS that produced it — so the
// Digest is a stable fingerprint of simulation state. Configuration
// (topology, latencies, workload construction) is deliberately absent:
// RestoreMachine rebuilds it and the restore validates the snapshot
// against the rebuilt machine.
type MachineSnapshot struct {
	// Version is the encoding version the snapshot was captured with.
	Version uint16

	sections []snapSection
}

type snapSection struct {
	name    string
	payload []byte
}

// Sections returns the snapshot's section names in encoding order.
func (s *MachineSnapshot) Sections() []string {
	names := make([]string, len(s.sections))
	for i, sec := range s.sections {
		names[i] = sec.name
	}
	return names
}

func (s *MachineSnapshot) section(name string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.name == name {
			return sec.payload, true
		}
	}
	return nil, false
}

// frame feeds the canonical body — everything Encode writes before its
// trailing digest — to put, in order: magic, version and section count,
// then each section's length-prefixed name and payload. Encode and
// Digest both call it, so the format has one definition; payloads reach
// put as they are, never copied. put must not keep the slices it is
// given: the prefixes reuse one buffer.
func (s *MachineSnapshot) frame(put func([]byte)) {
	var e snapbin.Enc
	e.U64(snapshotMagic)
	e.U16(s.Version)
	e.U32(uint32(len(s.sections)))
	put(e.Bytes())
	for _, sec := range s.sections {
		e.Reset()
		e.Str(sec.name)
		e.U32(uint32(len(sec.payload)))
		put(e.Bytes())
		put(sec.payload)
	}
}

// Encode renders the snapshot in the canonical binary form: magic,
// version, the sections, and a trailing SHA-256 digest of everything
// before it. It allocates once, exactly the encoding's length.
func (s *MachineSnapshot) Encode() []byte {
	n := sha256.Size
	s.frame(func(b []byte) { n += len(b) })
	out := make([]byte, 0, n)
	s.frame(func(b []byte) { out = append(out, b...) })
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Digest returns the hex SHA-256 of the canonical encoding — a stable
// fingerprint of the captured machine state. It streams the framing
// through two hashers, one for the trailing digest and one for the
// whole, and materialises no encoding.
func (s *MachineSnapshot) Digest() string {
	inner, outer := sha256.New(), sha256.New()
	s.frame(func(b []byte) {
		inner.Write(b)
		outer.Write(b)
	})
	outer.Write(inner.Sum(nil))
	return hex.EncodeToString(outer.Sum(nil))
}

// DecodeSnapshot parses a canonical encoding produced by Encode. It
// survives arbitrary input: framing, lengths and the integrity digest
// are validated before any section is trusted, and a snapshot from a
// different encoding version is rejected.
func DecodeSnapshot(b []byte) (*MachineSnapshot, error) {
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("sim: snapshot shorter than its digest: %w", snapbin.ErrCorrupt)
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("sim: snapshot integrity digest mismatch: %w", snapbin.ErrCorrupt)
	}
	d := snapbin.NewDec(body)
	if magic := d.U64(); d.Err() == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("sim: snapshot magic %#x: %w", magic, snapbin.ErrCorrupt)
	}
	version := d.U16()
	if d.Err() == nil && version != SnapshotVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, this build reads %d: %w",
			version, SnapshotVersion, errs.ErrBadConfig)
	}
	n := d.Count(8) // name prefix + payload prefix at minimum
	snap := &MachineSnapshot{Version: version}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		payload := append([]byte(nil), d.Blob()...)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if name == "" || seen[name] {
			return nil, fmt.Errorf("sim: snapshot section %q duplicated or empty: %w", name, snapbin.ErrCorrupt)
		}
		seen[name] = true
		snap.sections = append(snap.sections, snapSection{name: name, payload: payload})
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return snap, nil
}

// StateProvider lets a component attached to the machine (the clustering
// engine, custom experiment harnesses) ride along in machine snapshots
// as an opaque named section. Save appends the component's state to the
// encoder; Restore overwrites the component's state from a decoder
// positioned at its section (the decoder's Close is called by the
// machine). Closures inside the component are never serialized — the
// restoring caller reconstructs the component identically first, and
// Restore overlays the mutable state.
type StateProvider struct {
	Save    func(*snapbin.Enc) error
	Restore func(*snapbin.Dec) error
}

// RegisterStateProvider attaches a named state provider to the machine.
// Names must be unique, non-empty and distinct from the fixed section
// names; providers are encoded sorted by name.
func (m *Machine) RegisterStateProvider(name string, p StateProvider) error {
	switch name {
	case "", sectionMachine, sectionSched, sectionCache, sectionPMU:
		return fmt.Errorf("sim: state provider name %q is reserved: %w", name, errs.ErrBadConfig)
	}
	if p.Save == nil || p.Restore == nil {
		return fmt.Errorf("sim: state provider %q needs both Save and Restore: %w", name, errs.ErrBadConfig)
	}
	if _, ok := m.providers[name]; ok {
		return fmt.Errorf("sim: state provider %q: %w", name, errs.ErrAlreadyInstalled)
	}
	if m.providers == nil {
		m.providers = make(map[string]StateProvider)
	}
	m.providers[name] = p
	return nil
}

func (m *Machine) providerNames() []string {
	names := make([]string, 0, len(m.providers))
	for name := range m.providers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the machine's complete mutable state. The machine
// must be quiesced between scheduling rounds (no thread dispatched), and
// every thread's generator must be a ConfinedGenerator — generators that
// mutate shared structures at generation time have no serializable
// cursor, and snapshotting them is refused. So is a thread that holds
// unconsumed references of a run (see RunGenerator): its generator's
// cursor is already past them.
func (m *Machine) Snapshot(ctx context.Context) (*MachineSnapshot, error) {
	m.live()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for c, id := range m.running {
		if id >= 0 {
			return nil, fmt.Errorf("sim: CPU %d still runs thread %d mid-quantum: %w", c, id, errs.ErrThreadRunning)
		}
	}
	snap := &MachineSnapshot{Version: SnapshotVersion}
	add := func(name string, build func(*snapbin.Enc) error) error {
		e := &snapbin.Enc{}
		if err := build(e); err != nil {
			return fmt.Errorf("sim: snapshot section %q: %w", name, err)
		}
		snap.sections = append(snap.sections, snapSection{name: name, payload: e.Bytes()})
		return nil
	}
	if err := add(sectionMachine, m.saveMachineState); err != nil {
		return nil, err
	}
	if err := add(sectionSched, m.sch.SaveState); err != nil {
		return nil, err
	}
	if err := add(sectionCache, m.hier.SaveState); err != nil {
		return nil, err
	}
	if err := add(sectionPMU, func(e *snapbin.Enc) error { m.savePMUState(e); return nil }); err != nil {
		return nil, err
	}
	for _, name := range m.providerNames() {
		if err := add(name, m.providers[name].Save); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// saveMachineState encodes the machine-level section: clock, counters,
// the run seed as (cfg.Seed, 0) — the layout of an undrawn generator the
// machine no longer keeps; restore checks both words — the runqueue-depth
// histogram, and every thread's metrics and generator cursor in order.
func (m *Machine) saveMachineState(e *snapbin.Enc) error {
	e.U64(m.clock)
	e.U64(m.rounds)
	e.I64(m.cfg.Seed)
	e.U64(0)
	e.U64(m.overhead)
	e.U64(m.dispatchSlots)
	e.U64(m.dispatchBusy)
	counts := m.depthHist.BucketCounts()
	e.U32(uint32(len(counts)))
	for _, c := range counts {
		e.U64(c)
	}
	e.U64(m.depthHist.Sum())
	e.U64(m.depthHist.Count())
	e.U32(uint32(len(m.order)))
	for _, id := range m.order {
		t := m.threads[id]
		g, ok := t.Gen.(ConfinedGenerator)
		if !ok {
			return fmt.Errorf("sim: thread %d generator %T is not confined and has no serializable cursor: %w",
				id, t.Gen, errs.ErrBadConfig)
		}
		if len(t.pending) > 0 {
			return fmt.Errorf("sim: thread %d holds %d references of a run its generator's cursor is already past: %w",
				id, len(t.pending), errs.ErrBadConfig)
		}
		e.I64(int64(id))
		e.U64(t.Cycles)
		e.U64(t.Insts)
		e.U64(t.Ops)
		e.U64(t.RemoteMisses)
		e.Blob(g.SnapshotState())
	}
	return nil
}

// savePMUState encodes every CPU's PMU and (optional) multiplexer.
func (m *Machine) savePMUState(e *snapbin.Enc) {
	e.U32(uint32(len(m.pmus)))
	for c, p := range m.pmus {
		p.SaveState(e)
		e.Bool(m.muxes[c] != nil)
		if m.muxes[c] != nil {
			m.muxes[c].SaveState(e)
		}
	}
}

// RestoreSnapshot overwrites the machine's mutable state with a
// snapshot. The machine must have been rebuilt identically first — same
// configuration, same threads added in the same order, same PMU
// programming, multiplexers and state providers — and must be quiesced;
// the restore validates all of that and refuses mismatches, leaving the
// machine unusable only if a section was partially applied (callers
// should discard the machine on error).
func (m *Machine) RestoreSnapshot(snap *MachineSnapshot) error {
	m.live()
	if snap == nil {
		return fmt.Errorf("sim: nil snapshot: %w", errs.ErrBadConfig)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, this build reads %d: %w",
			snap.Version, SnapshotVersion, errs.ErrBadConfig)
	}
	for c, id := range m.running {
		if id >= 0 {
			return fmt.Errorf("sim: CPU %d still runs thread %d mid-quantum: %w", c, id, errs.ErrThreadRunning)
		}
	}
	want := append([]string{sectionMachine, sectionSched, sectionCache, sectionPMU}, m.providerNames()...)
	got := snap.Sections()
	if len(got) != len(want) {
		return fmt.Errorf("sim: snapshot has sections %v, machine expects %v: %w", got, want, errs.ErrBadConfig)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("sim: snapshot section %q where machine expects %q: %w", got[i], want[i], errs.ErrBadConfig)
		}
	}
	restore := func(name string, apply func(*snapbin.Dec) error) error {
		payload, _ := snap.section(name)
		d := snapbin.NewDec(payload)
		if err := apply(d); err != nil {
			return fmt.Errorf("sim: restore section %q: %w", name, err)
		}
		if err := d.Close(); err != nil {
			return fmt.Errorf("sim: restore section %q: %w", name, err)
		}
		return nil
	}
	if err := restore(sectionMachine, m.restoreMachineState); err != nil {
		return err
	}
	if err := restore(sectionSched, m.sch.RestoreState); err != nil {
		return err
	}
	if err := restore(sectionCache, m.hier.RestoreState); err != nil {
		return err
	}
	if err := restore(sectionPMU, m.restorePMUState); err != nil {
		return err
	}
	for _, name := range m.providerNames() {
		if err := restore(name, m.providers[name].Restore); err != nil {
			return err
		}
	}
	return nil
}

// restoreMachineState decodes and applies the machine-level section.
func (m *Machine) restoreMachineState(d *snapbin.Dec) error {
	clock := d.U64()
	rounds := d.U64()
	seed := d.I64()
	seedDraws := d.U64()
	overhead := d.U64()
	dispatchSlots := d.U64()
	dispatchBusy := d.U64()
	nbuckets := d.Count(8)
	histCounts := make([]uint64, nbuckets)
	for i := range histCounts {
		histCounts[i] = d.U64()
	}
	histSum := d.U64()
	histN := d.U64()
	nthreads := d.Count(40)
	if d.Err() == nil && nthreads != len(m.order) {
		return fmt.Errorf("sim: snapshot has %d threads, machine has %d: %w", nthreads, len(m.order), errs.ErrBadConfig)
	}
	type threadState struct {
		cycles, insts, ops, remote uint64
		gen                        []byte
	}
	states := make([]threadState, 0, nthreads)
	for i := 0; i < nthreads && d.Err() == nil; i++ {
		id := sched.ThreadID(d.I64())
		if d.Err() == nil && id != m.order[i] {
			return fmt.Errorf("sim: snapshot thread %d at position %d, machine has %d (threads must be re-added in the original order): %w",
				id, i, m.order[i], errs.ErrBadConfig)
		}
		states = append(states, threadState{
			cycles: d.U64(),
			insts:  d.U64(),
			ops:    d.U64(),
			remote: d.U64(),
			gen:    d.Blob(),
		})
	}
	if err := d.Err(); err != nil {
		return err
	}
	if seed != m.cfg.Seed || seedDraws != 0 {
		return fmt.Errorf("sim: snapshot of seed %d (draws %d) onto a seed-%d machine: %w", seed, seedDraws, m.cfg.Seed, errs.ErrBadConfig)
	}
	if err := m.depthHist.RestoreState(histCounts, histSum, histN); err != nil {
		return fmt.Errorf("%s: %w", err, errs.ErrBadConfig)
	}
	for i, id := range m.order {
		t := m.threads[id]
		g, ok := t.Gen.(ConfinedGenerator)
		if !ok {
			return fmt.Errorf("sim: thread %d generator %T is not confined: %w", id, t.Gen, errs.ErrBadConfig)
		}
		if err := g.RestoreState(states[i].gen); err != nil {
			return fmt.Errorf("sim: thread %d generator: %w", id, err)
		}
		t.pending = nil // the restored cursor is where the next run starts
		t.Cycles = states[i].cycles
		t.Insts = states[i].insts
		t.Ops = states[i].ops
		t.RemoteMisses = states[i].remote
	}
	m.clock = clock
	m.rounds = rounds
	m.overhead = overhead
	m.dispatchSlots = dispatchSlots
	m.dispatchBusy = dispatchBusy
	return nil
}

// restorePMUState decodes and applies every CPU's PMU and multiplexer.
func (m *Machine) restorePMUState(d *snapbin.Dec) error {
	if n := int(d.U32()); d.Err() == nil && n != len(m.pmus) {
		return fmt.Errorf("sim: snapshot has %d PMUs, machine has %d: %w", n, len(m.pmus), errs.ErrBadConfig)
	}
	for c, p := range m.pmus {
		if err := p.RestoreState(d); err != nil {
			return fmt.Errorf("sim: CPU %d PMU: %w", c, err)
		}
		hasMux := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if hasMux != (m.muxes[c] != nil) {
			return fmt.Errorf("sim: CPU %d multiplexer presence mismatch (snapshot %v, machine %v): %w",
				c, hasMux, m.muxes[c] != nil, errs.ErrBadConfig)
		}
		if hasMux {
			if err := m.muxes[c].RestoreState(d); err != nil {
				return fmt.Errorf("sim: CPU %d multiplexer: %w", c, err)
			}
		}
	}
	return d.Err()
}

// RestoreMachine rebuilds a machine from its configuration and a
// snapshot: it constructs a fresh machine, runs install — which must
// recreate the snapshotted machine's composition exactly (threads in the
// same order with identically constructed generators, PMU programming,
// multiplexers, engines/state providers) — and then overlays the
// snapshot's state. Generators and handlers are live closures a snapshot
// cannot carry, which is why the caller supplies install rather than the
// snapshot reconstructing the workload itself.
func RestoreMachine(cfg Config, snap *MachineSnapshot, install func(*Machine) error) (*Machine, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if install != nil {
		if err := install(m); err != nil {
			m.Close()
			return nil, err
		}
	}
	if err := m.RestoreSnapshot(snap); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}
