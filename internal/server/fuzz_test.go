package server

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
)

// FuzzJobSpec feeds arbitrary bytes to the wire decoder and Normalize:
// neither may panic, every rejection is a bad config (a 400), and an
// accepted spec has a positive cost and is a fixed point of Normalize.
func FuzzJobSpec(f *testing.F) {
	overflow, sharded := smallSpec("overflow"), shardSpec("shard")
	overflow.WarmRounds, overflow.EngineRounds = 1<<62, 1<<62
	sharded.Cells = []int{0, 2}
	for _, spec := range []JobSpec{smallSpec("small"), diffSpec("diff"), shardSpec(""), sharded, overflow} {
		data, _ := json.Marshal(spec)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("Normalize error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		if c := norm.Cost(); c <= 0 {
			t.Fatalf("accepted spec has cost %d", c)
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("Normalize(norm) = %v", err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", norm, again)
		}
	})
}

// FuzzCellRecord feeds arbitrary bytes to the cell-record decoder under
// one fixed key: it may not panic, and a record it accepts has fields
// that hash to that key.
func FuzzCellRecord(f *testing.F) {
	norm, err := smallSpec("fuzz").Normalize()
	if err != nil {
		f.Fatal(err)
	}
	grid, err := norm.Grid()
	if err != nil {
		f.Fatal(err)
	}
	key := grid.CellKey(grid.Cells()[0])
	good := cellRecord{CellKey: key}
	stale, moved := good, good
	stale.Epoch = experiments.DigestEpoch - 1
	moved.Opt.Seed++
	for _, rec := range []cellRecord{good, stale, moved} {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{not json"))

	want := key.Hash()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeCellRecord(data, want)
		if err != nil {
			return
		}
		if got := rec.Hash(); got != want {
			t.Fatalf("accepted a record hashing to %s under key %s", got, want)
		}
	})
}
