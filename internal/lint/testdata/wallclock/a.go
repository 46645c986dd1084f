// Package a is the wallclock golden package: reading the wall clock is
// forbidden in simulator code; simulated time is cycle counts.
package a

import "time"

func stamp() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func deadline(t time.Time) time.Duration {
	return time.Until(t) // want `time\.Until reads the wall clock`
}

// durationsOK: time.Duration arithmetic and constants never read the clock.
func durationsOK(d time.Duration) time.Duration {
	return d + 5*time.Millisecond
}

// parseOK: calendar formatting without the wall clock is fine.
func parseOK() (time.Time, error) {
	return time.Parse(time.RFC3339, "2007-03-21T00:00:00Z")
}
