package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// VolanoConfig parameterizes the VolanoMark-like chat server workload
// (Section 5.3.2): an instant-messaging server where every client
// connection is handled by two designated threads for the connection's
// lifetime, and all connections of a room broadcast into the room's
// shared state.
type VolanoConfig struct {
	// Rooms is the number of chat rooms (paper: 2).
	Rooms int
	// ClientsPerRoom is the number of connections per room (paper: 8).
	ClientsPerRoom int
	// RoomBufferBytes sizes each room's shared message board.
	RoomBufferBytes uint64
	// ConnBufferBytes sizes each connection's private socket/session
	// buffers, shared only by that connection's thread pair.
	ConnBufferBytes uint64
	// GlobalBytes sizes process-wide server state (user registry, room
	// directory, JVM internals) touched by every thread.
	GlobalBytes uint64
	// HeapBytes sizes each thread's private working memory.
	HeapBytes uint64
	// Seed drives the generators.
	Seed int64
}

// DefaultVolanoConfig is the paper's test case: 2 rooms, 8 clients per
// room, zero think time.
func DefaultVolanoConfig() VolanoConfig {
	return VolanoConfig{
		Rooms:           2,
		ClientsPerRoom:  8,
		RoomBufferBytes: 32 * memory.LineSize,
		ConnBufferBytes: 8 * memory.LineSize,
		GlobalBytes:     16 * memory.LineSize,
		HeapBytes:       96 << 10,
		Seed:            1,
	}
}

// volanoHotRoomLines is how many leading lines of a room's message board
// take half its traffic (the head of the board).
const volanoHotRoomLines = 4

// volanoThread models one of the two connection threads. A "reader"
// drains the room board into its connection buffer (read room, write conn
// buffer); a "writer" posts the client's messages (read conn buffer,
// write room board). Both occasionally touch global server state.
type volanoThread struct {
	cursor
	writer bool
	room   memory.Region
	conn   memory.Region
	global memory.Region
	heap   memory.Region

	run [1]sim.MemRef // NextRun's slot
}

// Confined marks the generator parallel-safe: a connection thread owns
// its RNG and step counter and reads only immutable Region descriptors.
func (v *volanoThread) Confined() {}

// SnapshotState returns the thread's cursor: RNG position and step.
func (v *volanoThread) SnapshotState() []byte { return v.save() }

// RestoreState overwrites the thread's cursor with a SnapshotState blob
// from an identically constructed thread.
func (v *volanoThread) RestoreState(state []byte) error { return v.restore(state) }

func (v *volanoThread) Next() sim.MemRef { return v.NextRun()[0] }

// NextRun writes one reference into the thread's run slot.
func (v *volanoThread) NextRun() []sim.MemRef {
	v.step++
	r := &v.run[0]
	r.BranchStall, r.OtherStall = stallNoise(&v.rng, 3, 6)
	r.Insts = 12
	r.Ops = 0
	switch v.step % 8 {
	case 0: // message transfer through the room board
		r.Addr = pickHot(&v.rng, v.room, volanoHotRoomLines, 0.5)
		r.Write = v.writer
		r.Ops = 1 // one message handled
	case 1: // connection buffer (pair-shared)
		r.Addr = pick(&v.rng, v.conn)
		r.Write = !v.writer
	case 2: // global server state, mostly reads with occasional updates
		r.Addr = pick(&v.rng, v.global)
		r.Write = v.rng.Intn(16) == 0
	default: // heap churn: parsing, formatting, GC-ish traffic
		r.Addr = pick(&v.rng, v.heap)
		r.Write = v.rng.Intn(3) == 0
	}
	return v.run[:]
}

// VolanoServer is the chat server's long-lived state: its rooms and
// global structures. It can mint new connections at runtime, which is how
// the connection-churn studies model clients joining and leaving (the
// behaviour that motivated the paper's persistent-connection modification
// to RUBiS, Section 5.3.4).
type VolanoServer struct {
	cfg    VolanoConfig
	arena  *memory.Arena
	global memory.Region
	rooms  []memory.Region
	spec   *Spec
	nextID int
}

// NewVolanoServer allocates the server structures and the initial
// connections (ClientsPerRoom per room).
func NewVolanoServer(arena *memory.Arena, cfg VolanoConfig) (*VolanoServer, error) {
	if cfg.Rooms <= 0 || cfg.ClientsPerRoom <= 0 {
		return nil, fmt.Errorf("workloads: volano needs positive rooms and clients, got %+v: %w", cfg, errs.ErrBadConfig)
	}
	if err := checkRegions("volano",
		regionSize{"RoomBufferBytes", cfg.RoomBufferBytes, volanoHotRoomLines},
		regionSize{"ConnBufferBytes", cfg.ConnBufferBytes, 1},
		regionSize{"GlobalBytes", cfg.GlobalBytes, 1},
		regionSize{"HeapBytes", cfg.HeapBytes, 1},
	); err != nil {
		return nil, err
	}
	global, err := arena.Alloc(cfg.GlobalBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	s := &VolanoServer{
		cfg:    cfg,
		arena:  arena,
		global: global,
		spec:   &Spec{Name: "volano", NumPartitions: cfg.Rooms},
	}
	s.rooms = make([]memory.Region, cfg.Rooms)
	for i := range s.rooms {
		if s.rooms[i], err = arena.Alloc(cfg.RoomBufferBytes, memory.LineSize); err != nil {
			return nil, err
		}
	}
	for c := 0; c < cfg.ClientsPerRoom; c++ {
		for r := 0; r < cfg.Rooms; r++ {
			if _, err := s.NewConnection(r); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Spec returns the workload spec (reflecting the initial connections).
func (s *VolanoServer) Spec() *Spec { return s.spec }

// NewConnection mints the two designated threads of a fresh client
// connection in the given room. The threads carry fresh ids; callers add
// them to a machine themselves when creating connections at runtime.
func (s *VolanoServer) NewConnection(room int) ([]*sim.Thread, error) {
	if room < 0 || room >= len(s.rooms) {
		return nil, fmt.Errorf("workloads: room %d out of range", room)
	}
	conn, err := s.arena.Alloc(s.cfg.ConnBufferBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	var pair []*sim.Thread
	for _, writer := range []bool{false, true} {
		heap, err := s.arena.Alloc(s.cfg.HeapBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		th := &volanoThread{
			cursor: cursor{rng: *rng.New(streamSeed(s.cfg.Seed, streamVolano, s.nextID))},
			writer: writer,
			room:   s.rooms[room],
			conn:   conn,
			global: s.global,
			heap:   heap,
		}
		thread := &sim.Thread{
			ID:        sched.ThreadID(s.nextID),
			Gen:       th,
			Partition: room,
		}
		s.spec.Threads = append(s.spec.Threads, thread)
		pair = append(pair, thread)
		s.nextID++
	}
	return pair, nil
}

// NewVolano builds the chat-server workload. Thread IDs interleave rooms
// so naive placement scatters rooms across chips. The ground-truth
// partition is the room.
func NewVolano(arena *memory.Arena, cfg VolanoConfig) (*Spec, error) {
	s, err := NewVolanoServer(arena, cfg)
	if err != nil {
		return nil, err
	}
	return s.Spec(), nil
}
