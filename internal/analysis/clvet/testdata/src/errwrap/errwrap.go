// Testdata for the errwrap analyzer, which applies only inside package
// cl: every function-local error construction must stay reachable by
// errors.Is classification.
package cl

import (
	"errors"
	"fmt"
)

// ErrThrottle is a package-level sentinel: this is how sentinels are
// born, and it is legal.
var ErrThrottle = errors.New("cl: throttled")

// Error is a stand-in for the typed cl error.
type Error struct {
	Code int
	Op   string
}

func (e *Error) Error() string { return fmt.Sprintf("cl: %s: code %d", e.Op, e.Code) }

// typed returns the typed error: clean.
func typed(op string) error {
	return &Error{Code: -5, Op: op}
}

// wrapped keeps the chain alive with %w: clean.
func wrapped(op string) error {
	return fmt.Errorf("cl: %s: %w", op, ErrThrottle)
}

// bare escapes untyped.
func bare(op string) error {
	return fmt.Errorf("cl: %s failed", op) // want `bare fmt\.Errorf escapes internal/cl untyped`
}

// dynamic cannot be checked for %w.
func dynamic(format string, op string) error {
	return fmt.Errorf(format, op) // want `fmt\.Errorf with a non-constant format`
}

// localNew mints an unclassifiable error inside a function.
func localNew() error {
	return errors.New("cl: oops") // want `errors\.New inside a function escapes internal/cl untyped`
}

// allowedBare documents a deliberate exception.
func allowedBare() error {
	//repute:allow errwrap -- parse-time config error, never reaches recovery
	return fmt.Errorf("cl: bad config")
}
