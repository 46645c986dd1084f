//go:build race

package server

// raceEnabled reports that the race detector is on. sync.Pool then drops
// a random share of what is put back, so pooled buffers are reallocated.
const raceEnabled = true
