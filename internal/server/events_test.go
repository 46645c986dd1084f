package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"threadcluster/internal/metrics"
)

func logEvent(i int) Event {
	return Event{Type: EventTask, Job: "j", Task: fmt.Sprintf("t%d", i)}
}

func TestEventLogReplay(t *testing.T) {
	l := newEventLog(16, nil)
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
		logs[i] = newEventLog(4, nil)
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

func TestEventLogOverflowKeepsTail(t *testing.T) {
	l := newEventLog(4, nil)
	for i := 0; i < 10; i++ {
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
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	if got[0].Seq != 6 || got[3].Seq != 9 {
		t.Fatalf("retained seqs %d..%d, want 6..9", got[0].Seq, got[3].Seq)
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", l.Dropped())
	}
}

func TestEventLogLiveFollow(t *testing.T) {
	l := newEventLog(16, nil)
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
	l := newEventLog(16, nil)
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
	l := newEventLog(16, nil)
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

// refEventLog is the ring eventLog replaced: every append past capacity
// copies the whole retained window. It is the reference for what a full
// log keeps.
type refEventLog struct {
	capacity          int
	events            []Event
	firstSeq, nextSeq int
	dropped           int
}

func (l *refEventLog) append(ev Event) {
	ev.Seq = l.nextSeq
	l.nextSeq++
	l.events = append(l.events, ev)
	if len(l.events) > l.capacity {
		over := len(l.events) - l.capacity
		l.events = append([]Event(nil), l.events[over:]...)
		l.firstSeq += over
		l.dropped += over
	}
}

// TestEventLogAppendPastCapacity appends ten times the capacity and
// requires, after every append, the reference's retained window, Seq
// numbers and drop counts, and a replay from any cursor that starts
// where the reference's would. Once the log is full an append allocates
// at most the broadcast channel it replaces: no copy of the window.
func TestEventLogAppendPastCapacity(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		reg := metrics.NewRegistry()
		l := newEventLog(capacity, reg.Counter("dropped", nil))
		ref := &refEventLog{capacity: capacity}
		for i := 0; i < 10*capacity; i++ {
			l.append(logEvent(i))
			ref.append(logEvent(i))
			got, _, _ := l.snapshotFrom(0)
			if !reflect.DeepEqual(got, ref.events) {
				t.Fatalf("cap %d, append %d: retained %v, want %v", capacity, i, got, ref.events)
			}
			if l.Dropped() != ref.dropped || reg.Snapshot().Counter("dropped", nil) != uint64(ref.dropped) {
				t.Fatalf("cap %d, append %d: dropped %d (counter %d), want %d", capacity, i,
					l.Dropped(), reg.Snapshot().Counter("dropped", nil), ref.dropped)
			}
			for _, cursor := range []int{ref.firstSeq - 1, ref.firstSeq, ref.nextSeq - 1, ref.nextSeq} {
				want := ref.events[max(cursor-ref.firstSeq, 0):]
				if got, _, _ := l.snapshotFrom(cursor); len(got) != len(want) || (len(got) > 0 && got[0].Seq != want[0].Seq) {
					t.Fatalf("cap %d, append %d: replay from %d = %v, want %v", capacity, i, cursor, got, want)
				}
			}
		}
		ev := logEvent(0)
		if allocs := testing.AllocsPerRun(10*capacity, func() { l.append(ev) }); allocs > 1 {
			t.Fatalf("cap %d: %.1f allocations per append to a full log, want at most 1 (the update channel)", capacity, allocs)
		}
	}
}
