// Package a is the ctxplumb golden package, analyzed as if it were
// internal/sweep: exported blocking functions must take a ctx first,
// and library code never manufactures a root context.
package a

import (
	"context"
	"sync"
	"time"
)

// Drain blocks on a channel receive without any way to cancel.
func Drain(ch chan int) int { // want `exported Drain can block \(channel receive\) but takes no context\.Context`
	return <-ch
}

// Feed blocks on a channel send.
func Feed(ch chan int, v int) { // want `exported Feed can block \(channel send\)`
	ch <- v
}

// Gather blocks in a WaitGroup wait.
func Gather(wg *sync.WaitGroup) { // want `exported Gather can block \(sync\.WaitGroup\.Wait\)`
	wg.Wait()
}

// Nap blocks in time.Sleep.
func Nap() { // want `exported Nap can block \(time\.Sleep\)`
	time.Sleep(time.Millisecond)
}

// Shuffle has a ctx, but hidden in the middle of the signature.
func Shuffle(n int, ctx context.Context, ch chan int) { // want `takes a context\.Context but not as its first parameter`
	for i := 0; i < n; i++ {
		ch <- i
	}
}

// DrainCtx is the sanctioned shape: ctx first, select on both.
func DrainCtx(ctx context.Context, ch chan int) (int, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TryDrain never blocks: its select has a default clause.
func TryDrain(ch chan int) (int, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
		return 0, false
	}
}

// drain is unexported; the signature rule only covers the API surface.
func drain(ch chan int) int {
	return <-ch
}

// Spawn only blocks inside the goroutine it launches, which is the
// goroutine's business, not the caller's.
func Spawn(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// Pure does not block at all.
func Pure(n int) int { return n * 2 }

func makesRoot() context.Context {
	return context.Background() // want `context\.Background\(\) in library code severs the caller's cancellation chain`
}

func makesTODO() context.Context {
	return context.TODO() // want `context\.TODO\(\) in library code severs`
}
