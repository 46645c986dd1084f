// Package fleet coordinates one simulation grid across many tcsimd
// workers without giving up the repo's byte-identical determinism
// contract. The coordinator normalizes a server.JobSpec through the
// exact Validate path tcsimd uses, hashes the grid's cells onto a
// fixed virtual-shard ring (a property of the job, not of the fleet),
// dispatches shard-scoped jobs — full-grid cell indices riding in
// JobSpec.Cells, so every cell keeps the name and seed the whole grid
// would assign — and scatters completed shards back into full-grid
// positions. The merged payload and its sha256 digest equal an offline
// experiments.RunGrid run of the same spec for any fleet size, worker
// arrival order, retry schedule, duplicate attempt or crash pattern,
// because every mechanism only ever changes *where and when* a pure
// function is evaluated, never *what* it evaluates (DESIGN.md §10).
//
// Robustness is first-class rather than bolted on: failed attempts
// retry with a deterministic seed-derived backoff, a shard whose newest
// attempt outlives StealAfter (doubled per duplicate) gets one more
// attempt, preferably on another worker, while the earlier ones keep
// running (first completion wins: shard results are pure), and the
// spool's write-once cell records let a killed coordinator resume to
// the uninterrupted digest. A record is named by what its cell computes
// (experiments.CellKey), not by its grid position, so a grid grown by a
// policy, or on one topology by a workload, sends only its new cells
// out. Records of an older format or epoch are never read; deleting
// cells/ costs only recomputation.
package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
)

// Options configures a Coordinator. The zero value of every field but
// Clock is usable; Clock is required (cmd/tcfleet passes the system
// clock, tests a server.FakeClock — internal/fleet itself stays
// wallclock-clean per DESIGN.md §6).
type Options struct {
	// Clock is the coordinator's only source of wall time: straggler
	// timers and event timestamps. Required.
	Clock server.Clock

	// Registry receives the fleet_* operational metrics; nil allocates
	// a private one (Registry() exposes it either way).
	Registry *metrics.Registry

	// VirtualShards is the ring size cells are hashed onto — the unit
	// of dispatch, retry and duplication. Default 64.
	VirtualShards int

	// MaxAttempts bounds failed attempts per shard before the job
	// fails. Default 4.
	MaxAttempts int

	// WorkerSlots is how many shards one worker runs concurrently.
	// Default 1.
	WorkerSlots int

	// StealAfter is the only straggler timer: once a running shard's
	// newest attempt has run longer than StealAfter·2^k, where k is the
	// duplicates it already has, the shard gets one more attempt on a
	// free slot, another worker's if any has one. Earlier attempts keep
	// running and the first completion wins. Default 30s.
	StealAfter time.Duration

	// Poll is the orchestrator loop's idle tick. Default 200ms.
	Poll time.Duration

	// RetryBase seeds the per-shard retry backoff (exponential,
	// deterministically jittered from the job seed). Default 250ms.
	RetryBase time.Duration

	// PingTimeout bounds one health probe of a down worker. Default 2s.
	PingTimeout time.Duration

	// SpoolDir holds the write-once records of completed grid cells
	// under "cells/", in the format tcsimd's spool uses (server.LookupCell):
	// Run replays every recorded cell and dispatches only the rest. ""
	// disables resume.
	SpoolDir string

	// Events receives the NDJSON event stream; nil discards it.
	Events io.Writer
}

// withDefaults resolves the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.VirtualShards <= 0 {
		o.VirtualShards = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.WorkerSlots <= 0 {
		o.WorkerSlots = 1
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 30 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 250 * time.Millisecond
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	return o
}

// Coordinator shards grid jobs across a fixed set of workers. One
// job runs at a time (Run serializes); the worker set is fixed at
// construction, though workers may die and return freely during a run.
type Coordinator struct {
	opt     Options
	workers []Worker

	runGate sync.Mutex // serializes Run

	mu       sync.Mutex
	live     map[string]bool // gauge-visible health, by worker name
	inflight map[string]int  // gauge-visible dispatch count, by worker name
	warnings []error

	// per-worker counters, created up front so every worker exports a
	// full series set from the first scrape
	mLeased    map[string]*metrics.Counter
	mStolen    map[string]*metrics.Counter
	mRetried   map[string]*metrics.Counter
	mCompleted map[string]*metrics.Counter
}

// New builds a coordinator over the given workers. Worker names must
// be unique (rendezvous assignment and the metrics series key on
// them) and at least one worker is required.
func New(workers []Worker, opt Options) (*Coordinator, error) {
	if opt.Clock == nil {
		return nil, fmt.Errorf("fleet: %w: Options.Clock is required", errs.ErrBadConfig)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("fleet: %w: at least one worker required", errs.ErrBadConfig)
	}
	c := &Coordinator{
		opt:        opt.withDefaults(),
		workers:    workers,
		live:       make(map[string]bool, len(workers)),
		inflight:   make(map[string]int, len(workers)),
		mLeased:    make(map[string]*metrics.Counter, len(workers)),
		mStolen:    make(map[string]*metrics.Counter, len(workers)),
		mRetried:   make(map[string]*metrics.Counter, len(workers)),
		mCompleted: make(map[string]*metrics.Counter, len(workers)),
	}
	reg := c.opt.Registry
	for _, w := range workers {
		name := w.Name()
		if name == "" {
			return nil, fmt.Errorf("fleet: %w: worker with empty name", errs.ErrBadConfig)
		}
		if _, dup := c.live[name]; dup {
			return nil, fmt.Errorf("fleet: %w: duplicate worker name %q", errs.ErrBadConfig, name)
		}
		c.live[name] = true // optimistic until a probe or failure says otherwise
		labels := metrics.Labels{"worker": name}
		c.mLeased[name] = reg.Counter("fleet_shards_leased_total", labels)
		c.mStolen[name] = reg.Counter("fleet_shards_stolen_total", labels)
		c.mRetried[name] = reg.Counter("fleet_shard_retries_total", labels)
		c.mCompleted[name] = reg.Counter("fleet_shards_completed_total", labels)
		reg.RegisterGaugeFunc("fleet_worker_up", labels, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.live[name] {
				return 1
			}
			return 0
		})
		reg.RegisterGaugeFunc("fleet_worker_inflight", labels, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.inflight[name])
		})
	}
	reg.RegisterGaugeFunc("fleet_workers_live", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, up := range c.live {
			if up {
				n++
			}
		}
		return float64(n)
	})
	return c, nil
}

// Registry exposes the coordinator's metrics registry (the configured
// one, or the private default) for cmd/tcfleet's exposition dump.
func (c *Coordinator) Registry() *metrics.Registry { return c.opt.Registry }

// Warnings returns the non-fatal problems accumulated so far —
// quarantined cell records and record write failures — in occurrence
// order.
func (c *Coordinator) Warnings() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.warnings...)
}

func (c *Coordinator) warn(err error) {
	c.mu.Lock()
	c.warnings = append(c.warnings, err)
	c.mu.Unlock()
}

// setLive flips a worker's gauge-visible health bit; returns true when
// the state changed.
func (c *Coordinator) setLive(name string, up bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live[name] == up {
		return false
	}
	c.live[name] = up
	return true
}

func (c *Coordinator) isLive(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[name]
}

func (c *Coordinator) addInflight(name string, delta int) {
	c.mu.Lock()
	c.inflight[name] += delta
	c.mu.Unlock()
}

func (c *Coordinator) inflightOf(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight[name]
}
