package workloads

import (
	"errors"
	"testing"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
)

// TestBadConfigsAreSentinels: invalid workload configurations classify
// with errors.Is, not just message text.
func TestBadConfigsAreSentinels(t *testing.T) {
	arena := memory.NewDefaultArena()
	cases := []struct {
		name string
		err  func() error
	}{
		{"synthetic", func() error {
			_, err := NewSynthetic(arena, SyntheticConfig{})
			return err
		}},
		{"volano", func() error {
			_, err := NewVolano(arena, VolanoConfig{})
			return err
		}},
		{"jbb", func() error {
			_, err := NewJBB(arena, JBBConfig{})
			return err
		}},
		{"rubis", func() error {
			_, err := NewRubis(arena, RubisConfig{})
			return err
		}},
		{"btree", func() error {
			_, err := NewBTree(nil)
			return err
		}},
		// Region sizes that used to build and then panic inside Next():
		// fewer whole lines than pick (1) or pickHot (its hot set) index.
		{"jbb sub-line meta", func() error {
			cfg := DefaultJBBConfig()
			cfg.MetaBytes = 64
			_, err := NewJBB(arena, cfg)
			return err
		}},
		{"jbb on nodes sub-line heap", func() error {
			cfg := DefaultJBBConfig()
			cfg.HeapBytes = memory.LineSize - 1
			_, err := NewJBBOnNodes([]*memory.Arena{arena}, cfg)
			return err
		}},
		{"jbb zero global", func() error {
			cfg := DefaultJBBConfig()
			cfg.GlobalBytes = 0
			_, err := NewJBB(arena, cfg)
			return err
		}},
		{"rubis rows below hot set", func() error {
			cfg := DefaultRubisConfig()
			cfg.RowBytes = 8 * memory.LineSize
			_, err := NewRubis(arena, cfg)
			return err
		}},
		{"rubis sub-line locks", func() error {
			cfg := DefaultRubisConfig()
			cfg.LockBytes = 100
			_, err := NewRubis(arena, cfg)
			return err
		}},
		{"volano room below hot set", func() error {
			cfg := DefaultVolanoConfig()
			cfg.RoomBufferBytes = 3 * memory.LineSize
			_, err := NewVolanoServer(arena, cfg)
			return err
		}},
		{"volano sub-line conn", func() error {
			cfg := DefaultVolanoConfig()
			cfg.ConnBufferBytes = 8
			_, err := NewVolano(arena, cfg)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestSmallestRegionsGenerate is the other side of the region validation:
// every region at exactly the size the constructors accept must survive
// Next() on every thread (the panics were in pick and pickHot).
func TestSmallestRegionsGenerate(t *testing.T) {
	jbb := DefaultJBBConfig()
	jbb.MetaBytes, jbb.GlobalBytes, jbb.HeapBytes = memory.LineSize, memory.LineSize, memory.LineSize
	rubis := DefaultRubisConfig()
	rubis.RowBytes = rubisHotRowLines * memory.LineSize
	rubis.LockBytes, rubis.GlobalBytes, rubis.SessionBytes = memory.LineSize, memory.LineSize, memory.LineSize
	volano := DefaultVolanoConfig()
	volano.RoomBufferBytes = volanoHotRoomLines * memory.LineSize
	volano.ConnBufferBytes, volano.GlobalBytes, volano.HeapBytes = memory.LineSize, memory.LineSize, memory.LineSize

	builds := map[string]func() (*Spec, error){
		"jbb":    func() (*Spec, error) { return NewJBB(memory.NewDefaultArena(), jbb) },
		"rubis":  func() (*Spec, error) { return NewRubis(memory.NewDefaultArena(), rubis) },
		"volano": func() (*Spec, error) { return NewVolano(memory.NewDefaultArena(), volano) },
	}
	for name, build := range builds {
		spec, err := build()
		if err != nil {
			t.Errorf("%s at the smallest accepted sizes: %v", name, err)
			continue
		}
		for _, th := range spec.Threads {
			for i := 0; i < 2000; i++ {
				th.Gen.Next()
			}
		}
	}
}
