package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func logEvent(i int) Event {
	return Event{Type: EventTask, Job: "j", Task: fmt.Sprintf("t%d", i)}
}

func TestEventLogReplay(t *testing.T) {
	l := newEventLog()
	for i := 0; i < 3; i++ {
		l.append(logEvent(i))
	}
	l.closeLog()
	var got []Event
	if err := l.subscribe(context.Background(), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != i || ev.Task != fmt.Sprintf("t%d", i) {
			t.Fatalf("event %d = %+v, want seq %d task t%d", i, ev, i, i)
		}
	}
}

// TestEventLogCloseAllocatesNothing: closing a log publishes the close
// on the update channel it has and makes no new one, and a subscriber
// that arrives after the close still drains and ends.
func TestEventLogCloseAllocatesNothing(t *testing.T) {
	const runs = 50
	logs := make([]*eventLog, runs+1) // AllocsPerRun makes one warm-up call
	for i := range logs {
		logs[i] = newEventLog()
		logs[i].append(logEvent(i))
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		logs[next].closeLog()
		next++
	}); allocs != 0 {
		t.Fatalf("closeLog allocated %v times per call, want 0", allocs)
	}
	n := 0
	if err := logs[0].subscribe(context.Background(), func(Event) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("subscribe after close: %d events, err %v; want 1, nil", n, err)
	}
}

func TestEventLogLiveFollow(t *testing.T) {
	l := newEventLog()
	l.append(logEvent(0))

	got := make(chan Event, 16)
	done := make(chan error, 1)
	go func() {
		done <- l.subscribe(context.Background(), func(ev Event) error {
			got <- ev
			return nil
		})
	}()
	read := func() Event {
		select {
		case ev := <-got:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for event")
			return Event{}
		}
	}
	if ev := read(); ev.Seq != 0 {
		t.Fatalf("first event seq %d, want 0 (replay)", ev.Seq)
	}
	l.append(logEvent(1))
	if ev := read(); ev.Seq != 1 {
		t.Fatalf("live event seq %d, want 1", ev.Seq)
	}
	l.closeLog()
	if err := <-done; err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
}

func TestEventLogSubscribeHonorsContext(t *testing.T) {
	l := newEventLog()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- l.subscribe(ctx, func(Event) error { return nil })
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("subscribe err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber did not unblock on ctx cancel")
	}
}

func TestEventLogCallbackErrorStops(t *testing.T) {
	l := newEventLog()
	l.append(logEvent(0))
	l.append(logEvent(1))
	boom := errors.New("boom")
	n := 0
	err := l.subscribe(context.Background(), func(Event) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("subscribe = (%v, %d calls), want boom after 1 call", err, n)
	}
}

// TestEventLogKeepsEveryEvent appends far more events than a job of
// the largest grid in use emits (35) and requires the whole history: a
// replay from any cursor is events[cursor:], Seq contiguous from it.
func TestEventLogKeepsEveryEvent(t *testing.T) {
	const n = 5000
	l := newEventLog()
	for i := 0; i < n; i++ {
		l.append(logEvent(i))
	}
	for cursor := 0; cursor <= n+1; cursor++ {
		got, _, _ := l.snapshotFrom(cursor)
		if want := max(n-cursor, 0); len(got) != want {
			t.Fatalf("replay from %d: %d events, want %d", cursor, len(got), want)
		}
		for i, ev := range got {
			if ev.Seq != cursor+i {
				t.Fatalf("replay from %d: event %d has seq %d, want %d", cursor, i, ev.Seq, cursor+i)
			}
		}
		if len(got) > 0 && got[0].Task != fmt.Sprintf("t%d", cursor) {
			t.Fatalf("replay from %d starts at task %s, want t%d", cursor, got[0].Task, cursor)
		}
	}
}
