package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// ChurnPoint is one connection-lifetime configuration.
type ChurnPoint struct {
	// Label describes the churn level.
	Label string
	// ReplaceEveryRounds is how often one connection is torn down and
	// replaced (0 = persistent connections).
	ReplaceEveryRounds int
	// RemoteFraction is the steady remote-stall share under the engine.
	RemoteFraction float64
	// Activations is how many detections the engine needed.
	Activations uint64
}

// Churn studies why the paper modified RUBiS to use persistent database
// connections (Section 5.3.4): with a thread per connection, short-lived
// connections keep replacing the threads the engine has sampled and
// placed, so sharing patterns never hold still. The sweep replaces chat
// connections at increasing rates and measures the residual remote-stall
// share the engine cannot eliminate. Persistent connections (no churn)
// are the baseline the paper's configuration creates.
func Churn(ctx context.Context, opt Options) ([]ChurnPoint, *stats.Table, error) {
	configs := []struct {
		label string
		every int
	}{
		{"persistent (paper's choice)", 0},
		{"slow churn (1 conn / 150 rounds)", 150},
		{"fast churn (1 conn / 30 rounds)", 30},
	}
	var points []ChurnPoint
	t := stats.NewTable("Connection churn: why Section 5.3.4 uses persistent connections",
		"Connections", "Residual remote stalls", "Detections")
	for _, c := range configs {
		p, _, err := churnRun(ctx, opt, c.every)
		if err != nil {
			return nil, nil, err
		}
		p.Label = c.label
		points = append(points, p)
		t.AddRow(p.Label, stats.Pct(p.RemoteFraction), fmt.Sprintf("%d", p.Activations))
	}
	return points, t, nil
}

func churnRun(ctx context.Context, opt Options, replaceEvery int) (ChurnPoint, *core.Engine, error) {
	vcfg := workloads.DefaultVolanoConfig()
	vcfg.Seed = opt.Seed
	server, err := workloads.NewVolanoServer(memory.NewDefaultArena(), vcfg)
	if err != nil {
		return ChurnPoint{}, nil, err
	}
	var churnErr error
	st := study{
		policy:  sched.PolicyClustered,
		install: server.Spec().Install,
		engine:  ScaledEngineConfig,
	}
	// The churn driver: every replaceEvery rounds, tear down the oldest
	// live connection and open a fresh one in the same room. Runs as a
	// tick observer, i.e. between scheduling rounds.
	if replaceEvery > 0 {
		rounds := 0
		next := 0 // index into the spec's thread list, pairwise
		st.setup = func(r *rig) error {
			r.m.OnTick(func(m *sim.Machine) {
				rounds++
				if rounds%replaceEvery != 0 || churnErr != nil {
					return
				}
				threads := server.Spec().Threads
				if next+1 >= len(threads) {
					return // every original connection already replaced once
				}
				old0, old1 := threads[next], threads[next+1]
				room := old0.Partition
				next += 2
				if err := m.RemoveThread(old0.ID); err != nil {
					churnErr = err
					return
				}
				if err := m.RemoveThread(old1.ID); err != nil {
					churnErr = err
					return
				}
				pair, err := server.NewConnection(room)
				if err != nil {
					churnErr = err
					return
				}
				for _, th := range pair {
					if err := m.AddThread(th); err != nil {
						churnErr = err
						return
					}
				}
			})
			return nil
		}
	}

	res, r, err := st.run(ctx, opt, opt.WarmRounds+opt.EngineRounds, opt.MeasureRounds)
	if churnErr != nil {
		panic(churnErr) // driver errors are programming errors
	}
	if err != nil {
		return ChurnPoint{}, nil, err
	}
	return ChurnPoint{
		ReplaceEveryRounds: replaceEvery,
		RemoteFraction:     res.RemoteFraction,
		Activations:        r.eng.Activations(),
	}, r.eng, nil
}
