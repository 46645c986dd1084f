// Package errs defines the sentinel errors shared across the simulator's
// layers. Internal packages wrap these with %w so callers can classify
// failures with errors.Is without parsing message strings; the root
// package re-exports the simulation sentinels as part of the public API,
// and the server maps the serving sentinels onto HTTP statuses.
package errs

import "errors"

var (
	// ErrDuplicateThread reports an attempt to register a thread ID that
	// is already installed on the machine or scheduler.
	ErrDuplicateThread = errors.New("duplicate thread")

	// ErrUnknownThread reports an operation on a thread ID the machine or
	// scheduler has never seen (or has already removed).
	ErrUnknownThread = errors.New("unknown thread")

	// ErrThreadRunning reports a structural operation (removal) attempted
	// while the thread is dispatched mid-quantum.
	ErrThreadRunning = errors.New("thread is running")

	// ErrBadConfig reports an invalid configuration: an impossible
	// topology, cache geometry, workload parameterization, engine setting
	// or job specification.
	ErrBadConfig = errors.New("bad configuration")

	// ErrAlreadyInstalled reports a second Install of a component that
	// supports only one installation (e.g. the clustering engine).
	ErrAlreadyInstalled = errors.New("already installed")

	// ErrJobNotFound reports an operation on a job ID the server has
	// never admitted (or has long since forgotten).
	ErrJobNotFound = errors.New("job not found")

	// ErrJobExists reports a submission whose client-chosen ID collides
	// with a job the server already holds.
	ErrJobExists = errors.New("job already exists")

	// ErrJobFinal reports a state change (cancellation) attempted on a
	// job that already reached a terminal state.
	ErrJobFinal = errors.New("job already final")

	// ErrJobNotDone reports a result fetch for a job that has not
	// finished yet.
	ErrJobNotDone = errors.New("job not done")

	// ErrOverloaded reports an admission rejected by backpressure: the
	// queue is at depth or the outstanding token budget is exhausted.
	// Carries a Retry-After hint at the HTTP layer.
	ErrOverloaded = errors.New("server overloaded")

	// ErrUnavailable reports a request to a server that is draining or
	// has not started; nothing is wrong with the request itself.
	ErrUnavailable = errors.New("server unavailable")

	// ErrSpoolCorrupt reports a spool file that failed to parse or
	// validate at re-admission, or a cell record that failed to at
	// lookup. The reader quarantines the file (renames it aside) and
	// carries on; the wrapped cause says what was wrong with it.
	ErrSpoolCorrupt = errors.New("corrupt spool entry")
)

// Sentinel pairs a sentinel with its declared name, for tools that need
// the full set (the errwrap analyzer derives its cross-package
// message table from this at init; the server derives its HTTP error
// codes from Name).
type Sentinel struct {
	// Name is the variable's declared name ("ErrBadConfig").
	Name string
	// Err is the sentinel itself.
	Err error
}

// Sentinels returns every sentinel declared in this package, in
// declaration order. A test parses this file's AST to guarantee the
// list is complete, so downstream consumers (the errwrap analyzer's
// duplicate-message table, the server's error-code mapping) cannot
// silently drift from the declarations above.
func Sentinels() []Sentinel {
	return []Sentinel{
		{"ErrDuplicateThread", ErrDuplicateThread},
		{"ErrUnknownThread", ErrUnknownThread},
		{"ErrThreadRunning", ErrThreadRunning},
		{"ErrBadConfig", ErrBadConfig},
		{"ErrAlreadyInstalled", ErrAlreadyInstalled},
		{"ErrJobNotFound", ErrJobNotFound},
		{"ErrJobExists", ErrJobExists},
		{"ErrJobFinal", ErrJobFinal},
		{"ErrJobNotDone", ErrJobNotDone},
		{"ErrOverloaded", ErrOverloaded},
		{"ErrUnavailable", ErrUnavailable},
		{"ErrSpoolCorrupt", ErrSpoolCorrupt},
	}
}
