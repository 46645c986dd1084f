package experiments

import (
	"context"
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
		p.table(Table1())
		return nil
	}},
	{"fig1", func(_ context.Context, p *printer, opt Options) error {
		t, err := Figure1(opt)
		if err != nil {
			return err
		}
		p.table(t)
		return nil
	}},
	{"fig3", func(ctx context.Context, p *printer, opt Options) error {
		for _, name := range p.fig3Workloads {
			t, _, err := Figure3(ctx, name, opt)
			if err != nil {
				return err
			}
			p.table(t)
		}
		return nil
	}},
	{"fig5", func(ctx context.Context, p *printer, opt Options) error {
		results, err := Figure5(ctx, opt)
		if err != nil {
			return err
		}
		for _, r := range results {
			p.text(r.String())
		}
		return nil
	}},
	{"fig6", func(ctx context.Context, p *printer, opt Options) error {
		t, _, err := Figure6(ctx, opt)
		if err != nil {
			return err
		}
		p.table(t)
		return nil
	}},
	{"fig7", func(ctx context.Context, p *printer, opt Options) error {
		t, _, err := Figure7(ctx, opt)
		if err != nil {
			return err
		}
		p.table(t)
		return nil
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
		if err != nil {
			return err
		}
		p.table(res.Table())
		p.text(res.Timeline.String())
		p.text("")
		return nil
	}},
	{"contention", tabled(Contention)},
	{"migration", resulted(MigrationCost)},
	{"multiprog", tabled(Multiprogrammed)},
	{"smt", tabled(SMTPlacement)},
	{"mux", tabled(MuxValidation)},
	{"probe", tabled(CacheProbe)},
	{"staged", tabled(Staged)},
	{"churn", tabled(Churn)},
}

// tabled adapts the harnesses that return (data, table, error).
func tabled[T any](f func(context.Context, Options) (T, *stats.Table, error)) func(context.Context, *printer, Options) error {
	return func(ctx context.Context, p *printer, opt Options) error {
		_, t, err := f(ctx, opt)
		if err != nil {
			return err
		}
		p.table(t)
		return nil
	}
}

// resulted adapts the harnesses whose result renders its own table.
func resulted[T interface{ Table() *stats.Table }](f func(context.Context, Options) (T, error)) func(context.Context, *printer, Options) error {
	return func(ctx context.Context, p *printer, opt Options) error {
		res, err := f(ctx, opt)
		if err != nil {
			return err
		}
		p.table(res.Table())
		return nil
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

func (p *printer) table(t *stats.Table) {
	if p.markdown {
		p.text(t.Markdown())
	} else {
		p.text(t.String())
	}
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
	if name == "all" {
		p.fig3Workloads = AllWorkloads()
	}
	ran := false
	for _, e := range catalogue {
		if name != "all" && name != e.name {
			continue
		}
		ran = true
		if err := e.run(ctx, p, opt); err != nil {
			return err
		}
		if p.err != nil {
			return fmt.Errorf("experiments: writing %s: %w", e.name, p.err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(ExperimentNames(), ", "))
	}
	return nil
}
