package fleet

import (
	"encoding/json"
	"testing"

	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
)

// FuzzCheckpoint feeds arbitrary bytes to both checkpoint decoders:
// tcsimd's readmission path (server.ReadCheckpoint: parse, Normalize,
// compile, Validate) and the coordinator's parseCheckpoint against a
// fixed submitted spec. Neither may panic, and whatever either accepts
// is a completed-cell map whose every index lies inside the job's cells
// and carries that cell's name and seed.
func FuzzCheckpoint(f *testing.F) {
	norm, err := testSpec("fuzz").Normalize()
	if err != nil {
		f.Fatal(err)
	}
	cells := jobCells(norm)
	good := server.NewCheckpoint(norm, map[int]server.CheckpointCell{
		3: {Index: 3, Name: cells[3].Name(), Seed: cells[3].Seed},
	})
	liar := server.Checkpoint{Spec: norm, Cells: []server.CheckpointCell{{Index: 0, Name: "wrong/cell/name", Seed: 1}}}
	for _, cf := range []any{server.Checkpoint{Spec: norm}, good, liar} {
		data, err := json.Marshal(cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if completed, err := parseCheckpoint(data, norm, cells); err == nil {
			checkCompleted(t, completed, cells)
		}
		// Compiling a grid costs memory per cell; keep fuzzed grids small.
		var probe server.Checkpoint
		if json.Unmarshal(data, &probe) == nil &&
			len(probe.Spec.Workloads)*len(probe.Spec.Policies)*len(probe.Spec.Topos) > 64 {
			return
		}
		if spec, completed, err := server.ReadCheckpoint(data); err == nil {
			specNorm, err := spec.Normalize()
			if err != nil {
				t.Fatalf("ReadCheckpoint accepted a spec Normalize rejects: %v", err)
			}
			checkCompleted(t, completed, jobCells(specNorm))
		}
	})
}

// jobCells lists the cells a normalized spec's job runs, in job order:
// the whole grid, or the selected subset of it.
func jobCells(norm server.JobSpec) []experiments.GridCell {
	grid, _ := norm.Grid() // a normalized spec's policies parse
	cells := grid.Cells()
	if len(norm.Cells) > 0 {
		subset := make([]experiments.GridCell, len(norm.Cells))
		for i, idx := range norm.Cells {
			subset[i] = cells[idx]
		}
		cells = subset
	}
	return cells
}

func checkCompleted(t *testing.T, completed map[int]server.CheckpointCell, cells []experiments.GridCell) {
	t.Helper()
	for i, cc := range completed {
		if i != cc.Index || i < 0 || i >= len(cells) || cc.Name != cells[i].Name() || cc.Seed != cells[i].Seed {
			t.Fatalf("accepted cell %d = %+v outside the job's %d cells or not matching them", i, cc, len(cells))
		}
	}
}
