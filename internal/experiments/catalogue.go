package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"threadcluster/internal/stats"
)

// experiment is one named entry of the evaluation: a table, figure or
// study of the paper, or an extension study. run renders it to the
// printer.
type experiment struct {
	name string
	run  func(ctx context.Context, p *printer, opt Options) error
}

// catalogue is every experiment in `-exp all` order: the paper's tables
// and figures, then the extension studies. Dispatch, the CLI help text
// and the unknown-experiment error all derive from it.
var catalogue = []experiment{
	{"table1", func(_ context.Context, p *printer, _ Options) error {
		return p.show(Table1(), nil)
	}},
	{"fig1", func(_ context.Context, p *printer, opt Options) error {
		return p.show(Figure1(opt))
	}},
	{"fig3", func(ctx context.Context, p *printer, opt Options) error {
		tables, _, err := figure3(ctx, p.fig3Workloads, opt)
		for _, t := range tables {
			p.show(t, nil)
		}
		return err
	}},
	{"fig5", func(ctx context.Context, p *printer, opt Options) error {
		results, err := Figure5(ctx, opt)
		for _, r := range results {
			p.text(r.String())
		}
		return err
	}},
	{"fig6", func(ctx context.Context, p *printer, opt Options) error {
		t, _, err := Figure6(ctx, opt)
		return p.show(t, err)
	}},
	{"fig7", func(ctx context.Context, p *printer, opt Options) error {
		t, _, err := Figure7(ctx, opt)
		return p.show(t, err)
	}},
	{"fig8", tabled(Figure8)},
	{"spatial", tabled(SpatialSensitivity)},
	{"scale32", resulted(Scale32)},
	{"sdar", resulted(SDARPurity)},
	{"ablation", tabled(Ablation)},
	{"threshold", tabled(ThresholdSensitivity)},
	{"pagevspmu", tabled(PageVsPMU)},
	{"numa", tabled(NUMA)},
	{"phase", func(ctx context.Context, p *printer, opt Options) error {
		res, err := PhaseChange(ctx, opt)
		if err = p.show(res.Table(), err); err == nil {
			p.text(res.Timeline.String())
			p.text("")
		}
		return err
	}},
	{"contention", tabled(Contention)},
	{"migration", resulted(MigrationCost)},
	{"multiprog", tabled(Multiprogrammed)},
	{"smt", tabled(SMTPlacement)},
	{"mux", tabled(MuxValidation)},
	{"probe", tabled(CacheProbe)},
	{"churn", tabled(Churn)},
}

// tabled adapts the harnesses that return (data, table, error).
func tabled[T any](f func(context.Context, Options) (T, *stats.Table, error)) func(context.Context, *printer, Options) error {
	return func(ctx context.Context, p *printer, opt Options) error {
		_, t, err := f(ctx, opt)
		return p.show(t, err)
	}
}

// resulted adapts the harnesses whose result renders its own table.
func resulted[T interface{ Table() *stats.Table }](f func(context.Context, Options) (T, error)) func(context.Context, *printer, Options) error {
	return func(ctx context.Context, p *printer, opt Options) error {
		res, err := f(ctx, opt)
		return p.show(res.Table(), err)
	}
}

// printer renders an experiment's output; the first write error sticks.
type printer struct {
	w        io.Writer
	markdown bool
	// fig3Workloads are the workloads fig3 breaks down.
	fig3Workloads []string
	err           error
}

// show prints t, unless the harness that made it failed; it returns that
// failure.
func (p *printer) show(t *stats.Table, err error) error {
	if err != nil {
		return err
	}
	if p.markdown {
		p.text(t.Markdown())
	} else {
		p.text(t.String())
	}
	return nil
}

func (p *printer) text(s string) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, s)
	}
}

// ExperimentNames lists the runnable experiments in `-exp all` order.
func ExperimentNames() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.name
	}
	return names
}

// RunExperiment renders the named experiment to w, as aligned text or
// GitHub-flavored Markdown. The name "all" runs the whole catalogue in
// order. fig3 breaks down the given workload when run by name and every
// workload under "all".
func RunExperiment(ctx context.Context, w io.Writer, name, workload string, opt Options, markdown bool) error {
	p := &printer{w: w, markdown: markdown, fig3Workloads: []string{workload}}
	var entries []experiment
	for _, e := range catalogue {
		if name == "all" || name == e.name {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(ExperimentNames(), ", "))
	}
	if name == "all" {
		p.fig3Workloads = AllWorkloads()
	}
	return render(ctx, p, entries, opt)
}

// render runs the entries' cells and prints the entries in order. First
// every entry's harness runs against a planning memo, which records the
// cells it asks for; then every distinct cell runs exactly once, all on
// one pool; then the harnesses run again and fold their cells' results
// out of the memo into their tables. A machine several entries measure
// alike (Figures 3, 6 and 7 share their cells, as do the spatial,
// ablation and threshold studies) is simulated once.
func render(ctx context.Context, p *printer, entries []experiment, opt Options) error {
	m, err := plan(ctx, p, entries, opt)
	if err != nil {
		return err
	}
	ctx = context.WithValue(ctx, memoKey{}, m)
	if err := m.run(ctx, m.planned); err != nil {
		return err
	}
	for _, e := range entries {
		if err := e.run(ctx, p, opt); err != nil {
			return err
		}
		if p.err != nil {
			return fmt.Errorf("experiments: writing %s: %w", e.name, p.err)
		}
	}
	return nil
}

// plan returns a memo holding every cell the entries ask for, none of
// them run yet.
func plan(ctx context.Context, p *printer, entries []experiment, opt Options) (*memo, error) {
	m := &memo{planning: true, done: map[CellKey]any{}}
	ctx = context.WithValue(ctx, memoKey{}, m)
	for _, e := range entries {
		err := e.run(ctx, &printer{w: io.Discard, fig3Workloads: p.fig3Workloads}, opt)
		if err != nil && !errors.Is(err, errPlanned) {
			return nil, err
		}
	}
	m.planning = false
	return m, nil
}
