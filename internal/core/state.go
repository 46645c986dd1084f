package core

import (
	"fmt"
	"sort"

	"threadcluster/internal/clustering"
	"threadcluster/internal/errs"
	"threadcluster/internal/rng"
	"threadcluster/internal/snapbin"
)

// StateProviderName is the machine-snapshot section the engine rides in.
// Install registers the engine under this name, so RestoreMachine's
// install callback must create and Install the engine before the
// snapshot is applied.
const StateProviderName = "core.engine"

// SaveState appends the engine's complete mutable state in canonical
// form: phase, monitoring-window bases, shMaps sorted by thread key,
// filters sorted by process, the jitter RNG, sampling counters, the two
// most recent clusterings and the migration bookkeeping. Config and the
// installed closures (overflow handlers, tick hook, cluster listener)
// are not state — the restoring side rebuilds them via Install.
func (e *Engine) SaveState(enc *snapbin.Enc) error {
	enc.U8(uint8(e.phase))
	enc.U64(e.windowStart)
	enc.U64(e.baseCycles)
	enc.U64(e.baseRemote)
	enc.U64(e.baseRemoteMem)

	keys := make([]clustering.ThreadKey, 0, len(e.shmaps))
	for k := range e.shmaps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	enc.U32(uint32(len(keys)))
	for _, k := range keys {
		enc.I64(int64(k))
		e.shmaps[k].SaveState(enc)
	}

	procs := make([]int, 0, len(e.filters))
	for p := range e.filters {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	enc.U32(uint32(len(procs)))
	for _, p := range procs {
		enc.I64(int64(p))
		e.filters[p].SaveState(enc)
	}

	st := e.rng.State()
	enc.I64(st.Seed)
	enc.U64(st.Draws)

	enc.I64(int64(e.samplesRead))
	enc.I64(int64(e.samplesAdmitted))
	enc.U64(e.cumSamplesRead)
	enc.U64(e.cumSamplesAdmitted)
	enc.U64(e.clusterings)
	saveClusters(enc, e.clusters)
	saveClusters(enc, e.prevClusters)

	enc.U64(e.detectStart)
	enc.U64(e.settleUntil)
	enc.U64(e.lastDetectTime)
	enc.U64(e.activations)
	enc.U64(e.migrationsDone)
	enc.F64(e.lastStability)
	enc.Bool(e.stabilityKnown)
	return nil
}

func saveClusters(enc *snapbin.Enc, cs []clustering.Cluster) {
	enc.Bool(cs != nil)
	if cs == nil {
		return
	}
	enc.U32(uint32(len(cs)))
	for _, c := range cs {
		enc.I64(int64(c.Rep))
		enc.U32(uint32(len(c.Members)))
		for _, m := range c.Members {
			enc.I64(int64(m))
		}
	}
}

func restoreClusters(d *snapbin.Dec) ([]clustering.Cluster, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	n := d.Count(12)
	cs := make([]clustering.Cluster, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		c := clustering.Cluster{Rep: clustering.ThreadKey(d.I64())}
		nm := d.Count(8)
		c.Members = make([]clustering.ThreadKey, 0, nm)
		for j := 0; j < nm && d.Err() == nil; j++ {
			c.Members = append(c.Members, clustering.ThreadKey(d.I64()))
		}
		cs = append(cs, c)
	}
	return cs, d.Err()
}

// RestoreState overwrites the engine's mutable state with a state saved
// by SaveState. The engine must have been built with the same config and
// Installed on an equivalent machine; the PMU overflow thresholds that
// accompany a detection phase live in the machine's own pmu section, so
// the handlers — which are live closures kept through restore — resume
// sampling exactly where the snapshot left off.
func (e *Engine) RestoreState(d *snapbin.Dec) error {
	phase := Phase(d.U8())
	if d.Err() == nil && phase != PhaseMonitoring && phase != PhaseDetecting {
		return fmt.Errorf("core: snapshot engine phase %d unknown: %w", int(phase), snapbin.ErrCorrupt)
	}
	windowStart := d.U64()
	baseCycles := d.U64()
	baseRemote := d.U64()
	baseRemoteMem := d.U64()

	nmaps := d.Count(12)
	shmaps := make(map[clustering.ThreadKey]*clustering.ShMap, nmaps)
	prev := int64(-1 << 62)
	for i := 0; i < nmaps && d.Err() == nil; i++ {
		key := d.I64()
		if key <= prev {
			return fmt.Errorf("core: snapshot shMap keys out of order: %w", snapbin.ErrCorrupt)
		}
		prev = key
		sm := clustering.NewShMap(e.cfg.ShMapEntries)
		if err := sm.RestoreState(d); err != nil {
			return fmt.Errorf("core: shMap for thread %d: %w", key, err)
		}
		shmaps[clustering.ThreadKey(key)] = sm
	}

	nfilters := d.Count(24)
	filters := make(map[int]*clustering.Filter, nfilters)
	prev = int64(-1 << 62)
	for i := 0; i < nfilters && d.Err() == nil; i++ {
		proc := d.I64()
		if proc <= prev {
			return fmt.Errorf("core: snapshot filter processes out of order: %w", snapbin.ErrCorrupt)
		}
		prev = proc
		f, err := clustering.NewFilter(e.cfg.ShMapEntries, e.cfg.FilterQuota)
		if err != nil {
			return err
		}
		if err := f.RestoreState(d); err != nil {
			return fmt.Errorf("core: filter for process %d: %w", proc, err)
		}
		filters[int(proc)] = f
	}
	if d.Err() == nil && filters[0] == nil {
		return fmt.Errorf("core: snapshot engine lacks the process-0 filter: %w", snapbin.ErrCorrupt)
	}

	rngSeed := d.I64()
	rngDraws := d.U64()
	samplesRead := d.I64()
	samplesAdmitted := d.I64()
	cumRead := d.U64()
	cumAdmitted := d.U64()
	clusterings := d.U64()
	clusters, err := restoreClusters(d)
	if err != nil {
		return err
	}
	prevClusters, err := restoreClusters(d)
	if err != nil {
		return err
	}
	detectStart := d.U64()
	settleUntil := d.U64()
	lastDetectTime := d.U64()
	activations := d.U64()
	migrationsDone := d.U64()
	lastStability := d.F64()
	stabilityKnown := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if samplesRead < 0 || samplesAdmitted < 0 || samplesAdmitted > samplesRead {
		return fmt.Errorf("core: snapshot sample counters %d/%d inconsistent: %w",
			samplesAdmitted, samplesRead, snapbin.ErrCorrupt)
	}
	if !e.installed {
		return fmt.Errorf("core: engine must be Installed before restore: %w", errs.ErrBadConfig)
	}
	if err := e.rng.Restore(rng.State{Seed: rngSeed, Draws: rngDraws}); err != nil {
		return fmt.Errorf("core: jitter generator: %w", err)
	}

	e.phase = phase
	e.windowStart = windowStart
	e.baseCycles = baseCycles
	e.baseRemote = baseRemote
	e.baseRemoteMem = baseRemoteMem
	e.shmaps = shmaps
	e.filters = filters
	e.filter = filters[0]
	e.samplesRead = int(samplesRead)
	e.samplesAdmitted = int(samplesAdmitted)
	e.cumSamplesRead = cumRead
	e.cumSamplesAdmitted = cumAdmitted
	e.clusterings = clusterings
	e.clusters = clusters
	e.prevClusters = prevClusters
	e.detectStart = detectStart
	e.settleUntil = settleUntil
	e.lastDetectTime = lastDetectTime
	e.activations = activations
	e.migrationsDone = migrationsDone
	e.lastStability = lastStability
	e.stabilityKnown = stabilityKnown
	return nil
}
