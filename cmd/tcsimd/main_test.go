package main

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
)

// lineBuffer hands the first stdout line (the listen banner) to the test.
type lineBuffer struct {
	mu    sync.Mutex
	lines chan string
	rest  strings.Builder
	sent  bool
}

func newLineBuffer() *lineBuffer { return &lineBuffer{lines: make(chan string, 1)} }

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rest.Write(p)
	if !b.sent {
		if text := b.rest.String(); strings.Contains(text, "\n") {
			b.sent = true
			b.lines <- strings.SplitN(text, "\n", 2)[0]
		}
	}
	return len(p), nil
}

// TestDaemonServesAndDrains boots the daemon on an ephemeral port, runs
// one job through the typed client, and stops it via the test stop
// channel — the whole lifecycle a systemd unit would see, minus signals.
func TestDaemonServesAndDrains(t *testing.T) {
	stdout := newLineBuffer()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-grace", "30s"}, stdout, io.Discard, stop)
	}()

	var base string
	select {
	case banner := <-stdout.lines:
		base = strings.TrimPrefix(banner, "tcsimd: listening on ")
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never printed its listen banner")
	}

	cl := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	spec := server.JobSpec{
		ID:            "boot",
		Workloads:     []string{"microbenchmark"},
		Policies:      []string{"default"},
		Topos:         []string{"open720"},
		Seed:          3,
		WarmRounds:    2,
		EngineRounds:  4,
		MeasureRounds: 4,
	}
	if _, err := cl.Submit(ctx, spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := cl.Wait(ctx, "boot")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if err := metrics.CheckPrometheusText(text); err != nil {
		t.Fatalf("daemon exposition invalid: %v", err)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after stop")
	}
}

// TestEventBufferFlagIsGone: a job keeps its whole event history, so
// there is no ring to size and -event-buffer is an undefined flag. run
// fails at the parse, before it listens.
func TestEventBufferFlagIsGone(t *testing.T) {
	stdout := newLineBuffer()
	err := run([]string{"-addr", "127.0.0.1:0", "-event-buffer", "8"}, stdout, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -event-buffer") {
		t.Fatalf("run(-event-buffer 8) = %v, want an undefined-flag error", err)
	}
	if stdout.rest.Len() != 0 {
		t.Fatalf("run printed %q before failing", stdout.rest.String())
	}
}
