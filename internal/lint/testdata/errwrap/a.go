// Package a is the errwrap golden package: sentinels travel through
// fmt.Errorf with %w, and nobody mints a fresh error that shadows an
// existing sentinel's message.
package a

import (
	"errors"
	"fmt"
)

// ErrNoCapacity is this package's local sentinel.
var ErrNoCapacity = errors.New("no capacity")

func wrapWithV(n int) error {
	return fmt.Errorf("adding %d: %v", n, ErrNoCapacity) // want `carries sentinel ErrNoCapacity without %w`
}

func wrapWithS(n int) error {
	return fmt.Errorf("adding %d: %s", n, ErrNoCapacity) // want `carries sentinel ErrNoCapacity without %w`
}

// wrapOK is the sanctioned pattern.
func wrapOK(n int) error {
	return fmt.Errorf("adding %d: %w", n, ErrNoCapacity)
}

// plainErrorfOK: no sentinel involved, %w not required.
func plainErrorfOK(n int) error {
	return fmt.Errorf("bad value %d", n)
}

// localErrOK: a local error variable is not a package-level sentinel.
func localErrOK() error {
	ErrLocal := errors.New("transient")
	return fmt.Errorf("retry: %v", ErrLocal)
}

func duplicateLocal() error {
	return errors.New("no capacity") // want `duplicates sentinel ErrNoCapacity declared in this package`
}

func duplicateKnown() error {
	return errors.New("bad configuration") // want `duplicates errs\.ErrBadConfig`
}

func duplicateKnownSpaced() error {
	return errors.New(" Unknown Thread ") // want `duplicates errs\.ErrUnknownThread`
}

// freshMessageOK: novel messages are fine.
func freshMessageOK() error {
	return errors.New("socket wedged")
}
