package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// RubisConfig parameterizes the RUBiS-like OLTP workload (Section 5.3.4):
// an online-auction database server (MySQL in the paper) running two
// separate database instances inside a single process, with persistent
// connections so each client is served by one long-lived thread. The
// paper uses 16 clients per instance with no think time.
type RubisConfig struct {
	// Instances is the number of database instances (paper: 2).
	Instances int
	// ClientsPerInstance is the number of connection threads per instance
	// (paper: 16).
	ClientsPerInstance int
	// TableKeys populates each instance's item index.
	TableKeys int
	// KeySpace is the key range for transactions.
	KeySpace uint64
	// RowBytes sizes each instance's row storage (buffer pool pages).
	RowBytes uint64
	// LockBytes sizes each instance's lock/latch region — small and
	// write-hot, the strongest intra-instance sharing signal.
	LockBytes uint64
	// GlobalBytes sizes process-wide server state (query cache metadata,
	// thread registry) shared across instances.
	GlobalBytes uint64
	// SessionBytes is each connection thread's private session state.
	SessionBytes uint64
	// BidRatio is the fraction of transactions that write (place a bid);
	// the rest browse.
	BidRatio float64
	// Seed drives population and generators.
	Seed int64
}

// DefaultRubisConfig is the paper's configuration: two database instances
// ("two separate auction sites run by a single large media company") with
// 16 clients each.
func DefaultRubisConfig() RubisConfig {
	return RubisConfig{
		Instances:          2,
		ClientsPerInstance: 16,
		TableKeys:          2000,
		KeySpace:           1 << 18,
		RowBytes:           256 << 10,
		LockBytes:          8 * memory.LineSize,
		GlobalBytes:        16 * memory.LineSize,
		SessionBytes:       48 << 10,
		BidRatio:           0.3,
		Seed:               1,
	}
}

// rubisHotRowLines is how many leading lines of an instance's row storage
// form its hot set (the auctions about to close).
const rubisHotRowLines = 32

// dbInstance is one database's shared structures.
type dbInstance struct {
	index *BTree        // item index
	rows  memory.Region // buffer-pool pages
	locks memory.Region // lock manager
}

// rubisWorker executes browse/bid transactions against its instance.
type rubisWorker struct {
	rng     rng.Rand
	inst    *dbInstance
	cfg     RubisConfig
	global  memory.Region
	session memory.Region

	// Reused by every transaction: the traceGenerator drains refs before
	// it asks for the next one.
	refs  []sim.MemRef
	trace []memory.Addr
}

// transaction produces the reference trace of one OLTP operation. The
// returned slice is valid until the next call.
func (w *rubisWorker) transaction() []sim.MemRef {
	refs := w.refs[:0]
	bid := w.rng.Float64() < w.cfg.BidRatio
	key := uint64(w.rng.Int63n(int64(w.cfg.KeySpace))) + 1

	// 1. Lock acquisition: write-hot, instance-shared.
	refs = append(refs, sim.MemRef{Addr: pick(&w.rng, w.inst.locks), Write: true, Insts: 6})

	// 2. Index traversal.
	if bid {
		w.trace, _ = w.inst.index.Insert(w.trace[:0], key)
	} else {
		w.trace, _ = w.inst.index.Lookup(w.trace[:0], key)
	}
	for _, a := range w.trace {
		branch, other := stallNoise(&w.rng, 2, 5)
		refs = append(refs, sim.MemRef{Addr: a, Insts: 9, BranchStall: branch, OtherStall: other})
	}

	// 3. Row access: browse reads several rows, a bid updates one.
	nRows := 3
	if bid {
		nRows = 1
	}
	for i := 0; i < nRows; i++ {
		refs = append(refs, sim.MemRef{
			Addr:  pickHot(&w.rng, w.inst.rows, rubisHotRowLines, 0.4),
			Write: bid,
			Insts: 10,
		})
	}

	// 4. Lock release.
	refs = append(refs, sim.MemRef{Addr: pick(&w.rng, w.inst.locks), Write: true, Insts: 6})

	// 5. Session state (private) and occasional process-global touch.
	refs = append(refs, sim.MemRef{Addr: pick(&w.rng, w.session), Write: true, Insts: 12})
	if w.rng.Intn(10) == 0 {
		refs = append(refs, sim.MemRef{
			Addr:  pick(&w.rng, w.global),
			Write: w.rng.Intn(5) == 0,
			Insts: 8,
		})
	}
	refs[len(refs)-1].Ops = 1 // one OLTP transaction
	w.refs = refs
	return refs
}

// NewRubis builds the two-instance OLTP workload. Thread IDs interleave
// instances (thread i serves instance i % Instances); the ground truth
// partition is the database instance.
func NewRubis(arena *memory.Arena, cfg RubisConfig) (*Spec, error) {
	if cfg.Instances <= 0 || cfg.ClientsPerInstance <= 0 {
		return nil, fmt.Errorf("workloads: rubis needs positive instances and clients, got %+v: %w", cfg, errs.ErrBadConfig)
	}
	if cfg.KeySpace == 0 {
		return nil, fmt.Errorf("workloads: rubis needs a key space: %w", errs.ErrBadConfig)
	}
	if err := checkRegions("rubis",
		regionSize{"RowBytes", cfg.RowBytes, rubisHotRowLines},
		regionSize{"LockBytes", cfg.LockBytes, 1},
		regionSize{"GlobalBytes", cfg.GlobalBytes, 1},
		regionSize{"SessionBytes", cfg.SessionBytes, 1},
	); err != nil {
		return nil, err
	}
	global, err := arena.Alloc(cfg.GlobalBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	popRng := rng.New(streamSeed(cfg.Seed, streamRubis, populationStream))
	insts := make([]*dbInstance, cfg.Instances)
	var scratch []memory.Addr // population traces are discarded
	for i := range insts {
		index, err := NewBTree(arena)
		if err != nil {
			return nil, err
		}
		for k := 0; k < cfg.TableKeys; k++ {
			if scratch, err = index.Insert(scratch[:0], uint64(popRng.Int63n(int64(cfg.KeySpace)))+1); err != nil {
				return nil, err
			}
		}
		rows, err := arena.Alloc(cfg.RowBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		locks, err := arena.Alloc(cfg.LockBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		insts[i] = &dbInstance{index: index, rows: rows, locks: locks}
	}
	spec := &Spec{Name: "rubis", NumPartitions: cfg.Instances}
	total := cfg.Instances * cfg.ClientsPerInstance
	for i := 0; i < total; i++ {
		in := i % cfg.Instances
		session, err := arena.Alloc(cfg.SessionBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		w := &rubisWorker{
			rng:     *rng.New(streamSeed(cfg.Seed, streamRubis, i)),
			inst:    insts[in],
			cfg:     cfg,
			global:  global,
			session: session,
		}
		spec.Threads = append(spec.Threads, &sim.Thread{
			ID:        sched.ThreadID(i),
			Gen:       &traceGenerator{refill: w.transaction},
			Partition: in,
		})
	}
	return spec, nil
}
