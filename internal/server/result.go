package server

import (
	"crypto/sha256"
	"fmt"
	"strconv"

	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sweep"
)

// TaskResult is one grid cell's outcome inside a result payload.
type TaskResult struct {
	// Name is the cell ("workload/policy/topo"); Seed its derived seed.
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Metrics is the cell's full snapshot (absent on error).
	Metrics metrics.Snapshot `json:"metrics"`
	// Error is the cell's failure, if any.
	Error string `json:"error,omitempty"`
}

// ResultPayload is a completed job's result: per-cell results in grid
// order, the merged machine-wide snapshot, and a content digest. The
// marshaled payload is byte-identical for any server concurrency, queue
// depth, arrival order or per-job worker count — results are keyed to
// grid positions, snapshots are deterministically ordered, and nothing
// wall-clock-derived is present — so `tcsim submit` against a loaded
// server and `tcsim sweep` offline produce the same bytes for the same
// spec.
type ResultPayload struct {
	// Tasks lists every grid cell in grid (not completion) order.
	Tasks []TaskResult `json:"tasks"`
	// Merged is the fold of all successful cells' snapshots.
	Merged metrics.Snapshot `json:"merged"`
	// Digest is "sha256:<hex>" over the payload with Digest itself blank.
	Digest string `json:"digest"`
}

// BuildResultPayload assembles and digests the canonical payload from a
// grid run's cells and results (the shapes experiments.RunGrid returns).
func BuildResultPayload(cells []experiments.GridCell, results []sweep.Result, merged metrics.Snapshot) (ResultPayload, error) {
	p, _, err := EncodeResultPayload(nil, cells, results, merged)
	return p, err
}

// EncodeResultPayload assembles the payload, appends its compact
// encoding with Digest blank to dst, digests those bytes, and splices
// the digest into them: it returns the payload and dst extended by its
// compact encoding, digest included — json.Marshal of the payload and
// the bytes the result endpoint serves. A daemon cuts it into what a
// done job keeps and reuses dst.
func EncodeResultPayload(dst []byte, cells []experiments.GridCell, results []sweep.Result, merged metrics.Snapshot) (ResultPayload, []byte, error) {
	p := ResultPayload{
		Tasks:  make([]TaskResult, 0, len(results)),
		Merged: merged,
	}
	for i, r := range results {
		tr := TaskResult{Name: r.Name, Seed: r.Seed, Metrics: r.Metrics}
		if i < len(cells) && tr.Name == "" {
			tr.Name = cells[i].Name()
		}
		if r.Err != nil {
			tr.Error = r.Err.Error()
		}
		p.Tasks = append(p.Tasks, tr)
	}
	data, err := p.appendJSON(dst)
	if err != nil {
		return ResultPayload{}, nil, fmt.Errorf("server: digesting payload: %w", err)
	}
	p.Digest = fmt.Sprintf("sha256:%x", sha256.Sum256(data[len(dst):]))
	// data ends `"digest":""}`; the digest needs no escaping.
	data = append(append(data[:len(data)-2], p.Digest...), `"}`...)
	return p, data, nil
}

// Digest computes the payload digest for a grid run without building the
// full payload value: the offline `tcsim sweep -digest` path.
func Digest(cells []experiments.GridCell, results []sweep.Result, merged metrics.Snapshot) (string, error) {
	p, err := BuildResultPayload(cells, results, merged)
	if err != nil {
		return "", err
	}
	return p.Digest, nil
}

// Marshal renders the payload as the exact bytes the result endpoint
// serves: json.Marshal(p).
func (p ResultPayload) Marshal() ([]byte, error) {
	data, err := p.appendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("server: marshaling payload: %w", err)
	}
	return data, nil
}

// appendJSON appends p's compact JSON encoding, byte-identical to
// json.Marshal(p), to dst.
func (p ResultPayload) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"tasks":`...)
	if p.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range p.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = metrics.AppendJSONString(dst, t.Name)
			dst = append(dst, `,"seed":`...)
			dst = strconv.AppendInt(dst, t.Seed, 10)
			dst = append(dst, `,"metrics":`...)
			var err error
			if dst, err = t.Metrics.AppendJSON(dst); err != nil {
				return nil, err
			}
			if t.Error != "" {
				dst = append(dst, `,"error":`...)
				dst = metrics.AppendJSONString(dst, t.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"merged":`...)
	dst, err := p.Merged.AppendJSON(dst)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"digest":`...)
	dst = metrics.AppendJSONString(dst, p.Digest)
	return append(dst, '}'), nil
}
