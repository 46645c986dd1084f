// Package trace records and replays memory-reference streams. A Recorder
// wraps the generators of live threads and captures every MemRef they
// produce; the capture serializes to a compact binary format and loads
// back as replayable generators. This turns any workload run into a
// portable, deterministic artifact: the same trace can be replayed under
// every placement policy, shared between machines, or produced by an
// external tool and fed to the simulator.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// magic identifies the trace file format; version gates decoding.
const (
	magic   = "TCTR"
	version = 1
)

// ThreadTrace is one thread's captured reference stream.
type ThreadTrace struct {
	// ID is the thread id at capture time.
	ID sched.ThreadID
	// Partition is the thread's ground-truth partition at capture time.
	Partition int
	// Refs is the captured stream, in order.
	Refs []sim.MemRef
}

// Trace is a whole captured workload.
type Trace struct {
	Threads []ThreadTrace
}

// Recorder captures reference streams from live generators.
type Recorder struct {
	threads []*recordingGen
	// MaxRefsPerThread bounds capture (0 = unlimited). Recording stops
	// silently at the cap; replay loops, so bounded captures stay useful.
	MaxRefsPerThread int
}

// NewRecorder returns a recorder with the given per-thread cap.
func NewRecorder(maxRefsPerThread int) *Recorder {
	return &Recorder{MaxRefsPerThread: maxRefsPerThread}
}

type recordingGen struct {
	inner     sim.Generator
	id        sched.ThreadID
	partition int
	refs      []sim.MemRef
	cap       int
}

func (g *recordingGen) Next() sim.MemRef {
	ref := g.inner.Next()
	if g.cap == 0 || len(g.refs) < g.cap {
		g.refs = append(g.refs, ref)
	}
	return ref
}

// Wrap replaces the thread's generator with a recording wrapper. Call it
// before installing the thread on a machine.
func (r *Recorder) Wrap(t *sim.Thread) {
	g := &recordingGen{inner: t.Gen, id: t.ID, partition: t.Partition, cap: r.MaxRefsPerThread}
	t.Gen = g
	r.threads = append(r.threads, g)
}

// Captured returns how many references have been captured in total.
func (r *Recorder) Captured() int {
	n := 0
	for _, g := range r.threads {
		n += len(g.refs)
	}
	return n
}

// Snapshot assembles the capture into a Trace.
func (r *Recorder) Snapshot() *Trace {
	t := &Trace{}
	for _, g := range r.threads {
		refs := make([]sim.MemRef, len(g.refs))
		copy(refs, g.refs)
		t.Threads = append(t.Threads, ThreadTrace{ID: g.id, Partition: g.partition, Refs: refs})
	}
	return t
}

// Save writes the capture in the binary trace format.
func (r *Recorder) Save(w io.Writer) error { return r.Snapshot().Save(w) }

// Save serializes the trace. Layout (all little-endian):
//
//	magic[4] version:u32 threads:u32
//	per thread: id:i64 partition:i64 refs:u64
//	            per ref: addr:u64 insts:u32 flagsOps:u32
//	                     branch:u32 other:u32
//
// where flagsOps packs the write bit (bit 31) and the ops count. A
// reference a record cannot hold exactly — a count past its field — is an
// error, never truncated: the saved trace must replay the captured stream.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := []uint32{version, uint32(len(t.Threads))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, th := range t.Threads {
		meta := []int64{int64(th.ID), int64(th.Partition)}
		if err := binary.Write(bw, binary.LittleEndian, meta); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(th.Refs))); err != nil {
			return err
		}
		for j, ref := range th.Refs {
			if ref.Insts > math.MaxUint32 || ref.BranchStall > math.MaxUint32 || ref.OtherStall > math.MaxUint32 || ref.Ops >= 1<<31 {
				return fmt.Errorf("trace: thread %d ref %d {Insts %d, BranchStall %d, OtherStall %d, Ops %d} does not fit a record",
					th.ID, j, ref.Insts, ref.BranchStall, ref.OtherStall, ref.Ops)
			}
			flagsOps := uint32(ref.Ops)
			if ref.Write {
				flagsOps |= 1 << 31
			}
			rec := []uint32{uint32(ref.Insts), flagsOps, uint32(ref.BranchStall), uint32(ref.OtherStall)}
			if err := binary.Write(bw, binary.LittleEndian, uint64(ref.Addr)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveCompressed writes the trace gzip-compressed. Load transparently
// detects and decompresses such files.
func (t *Trace) SaveCompressed(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := t.Save(zw); err != nil {
		return err
	}
	return zw.Close()
}

// Load parses a trace file, transparently handling gzip compression.
func Load(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	// Sniff for the gzip magic (0x1f 0x8b).
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReader(zr)
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[0])
	}
	nThreads := int(hdr[1])
	if nThreads < 0 || nThreads > 1<<20 {
		return nil, fmt.Errorf("trace: implausible thread count %d", nThreads)
	}
	t := &Trace{}
	for i := 0; i < nThreads; i++ {
		var meta [2]int64
		if err := binary.Read(br, binary.LittleEndian, &meta); err != nil {
			return nil, fmt.Errorf("trace: thread %d metadata: %w", i, err)
		}
		var nRefs uint64
		if err := binary.Read(br, binary.LittleEndian, &nRefs); err != nil {
			return nil, fmt.Errorf("trace: thread %d ref count: %w", i, err)
		}
		if nRefs > 1<<32 {
			return nil, fmt.Errorf("trace: implausible ref count %d", nRefs)
		}
		th := ThreadTrace{ID: sched.ThreadID(meta[0]), Partition: int(meta[1])}
		// The count is not trusted with an allocation: the slice grows with
		// the records actually read, so a short input fails at its end.
		th.Refs = make([]sim.MemRef, 0, min(nRefs, 1<<16))
		for j := 0; uint64(j) < nRefs; j++ {
			var addr uint64
			var rec [4]uint32
			if err := binary.Read(br, binary.LittleEndian, &addr); err != nil {
				return nil, fmt.Errorf("trace: thread %d ref %d: %w", i, j, err)
			}
			if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
				return nil, fmt.Errorf("trace: thread %d ref %d: %w", i, j, err)
			}
			th.Refs = append(th.Refs, sim.MemRef{
				Addr:        memory.Addr(addr),
				Insts:       uint64(rec[0]),
				Write:       rec[1]&(1<<31) != 0,
				Ops:         uint64(rec[1] &^ (1 << 31)),
				BranchStall: uint64(rec[2]),
				OtherStall:  uint64(rec[3]),
			})
		}
		t.Threads = append(t.Threads, th)
	}
	return t, nil
}

// replayGen replays one thread's stream, looping at the end.
type replayGen struct {
	refs []sim.MemRef
	pos  int
}

func (g *replayGen) Next() sim.MemRef {
	run := g.NextRun()
	g.pos = (len(g.refs) - len(run) + 1) % len(g.refs)
	return run[0]
}

// NextRun returns the rest of the stream up to the loop point, in place:
// the captured references never change.
func (g *replayGen) NextRun() []sim.MemRef {
	run := g.refs[g.pos:]
	g.pos = 0
	return run
}

// Threads materializes replay threads for a machine. The streams loop
// endlessly, so the replay can run longer than the capture.
func (t *Trace) ThreadsForReplay() ([]*sim.Thread, error) {
	var out []*sim.Thread
	for _, th := range t.Threads {
		if len(th.Refs) == 0 {
			return nil, fmt.Errorf("trace: thread %d has no references", th.ID)
		}
		refs := make([]sim.MemRef, len(th.Refs))
		copy(refs, th.Refs)
		out = append(out, &sim.Thread{
			ID:        th.ID,
			Gen:       &replayGen{refs: refs},
			Partition: th.Partition,
		})
	}
	return out, nil
}

// Refs returns the total reference count.
func (t *Trace) Refs() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th.Refs)
	}
	return n
}

// Footprint returns the number of distinct cache lines the trace touches.
func (t *Trace) Footprint() int {
	lines := make(map[memory.Addr]struct{})
	for _, th := range t.Threads {
		for _, ref := range th.Refs {
			lines[memory.LineOf(ref.Addr)] = struct{}{}
		}
	}
	return len(lines)
}

// SharedLines returns how many distinct lines are touched by more than
// one thread — a quick sharing census of a trace.
func (t *Trace) SharedLines() int {
	owner := make(map[memory.Addr]sched.ThreadID)
	shared := make(map[memory.Addr]struct{})
	for _, th := range t.Threads {
		for _, ref := range th.Refs {
			line := memory.LineOf(ref.Addr)
			if prev, ok := owner[line]; ok {
				if prev != th.ID {
					shared[line] = struct{}{}
				}
				continue
			}
			owner[line] = th.ID
		}
	}
	return len(shared)
}
