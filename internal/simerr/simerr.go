// Package simerr defines QIsim's error taxonomy: the small set of sentinel
// error classes every public simulation boundary maps its failures onto, the
// CLI exit-code contract derived from them, and helpers for converting
// library-internal panics into typed errors at those boundaries.
//
// The contract (documented in DESIGN.md "Error-handling contract"):
//
//   - ErrInvalidConfig — the caller asked for something the model cannot
//     represent (bad distance, non-positive shot count, malformed layout).
//   - ErrNumerical — a NaN/Inf was detected in a numerical kernel or its
//     output; the result would be silent garbage and is withheld.
//   - ErrBudgetInfeasible — a shot/time budget cannot satisfy the request
//     (e.g. the convergence floor exceeds the shot budget).
//   - ErrUnsupportedQASM — the OpenQASM source uses a construct outside the
//     supported subset, or is malformed.
//   - ErrInterrupted — a context deadline or cancellation stopped a run;
//     long-running entry points instead return a flagged partial result
//     (see internal/simrun), and CLIs convert that flag into this class.
//
// Hot-path kernels in internal/cmath keep panics for programmer errors
// (shape mismatches); everything reachable from user input must surface as
// one of the classes above.
package simerr

import (
	"errors"
	"fmt"
)

// Sentinel error classes. Match with errors.Is.
var (
	ErrInvalidConfig    = errors.New("invalid configuration")
	ErrNumerical        = errors.New("numerical instability")
	ErrBudgetInfeasible = errors.New("budget infeasible")
	ErrUnsupportedQASM  = errors.New("unsupported QASM")
	ErrInterrupted      = errors.New("interrupted")
)

// CLI exit codes, one per error class. Code 1 is reserved for untyped
// failures and 2 for usage errors (flag package convention).
const (
	ExitOK          = 0
	ExitFailure     = 1
	ExitUsage       = 2
	ExitInterrupted = 3
	ExitInvalid     = 4
	ExitNumerical   = 5
	ExitBudget      = 6
	ExitUnsupported = 7
)

// ExitCode maps an error to the CLI exit-code contract.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrInterrupted):
		return ExitInterrupted
	case errors.Is(err, ErrInvalidConfig):
		return ExitInvalid
	case errors.Is(err, ErrNumerical):
		return ExitNumerical
	case errors.Is(err, ErrBudgetInfeasible):
		return ExitBudget
	case errors.Is(err, ErrUnsupportedQASM):
		return ExitUnsupported
	default:
		return ExitFailure
	}
}

// Class returns the short class name of a typed error ("" for untyped).
func Class(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrInterrupted):
		return "interrupted"
	case errors.Is(err, ErrInvalidConfig):
		return "invalid-config"
	case errors.Is(err, ErrNumerical):
		return "numerical"
	case errors.Is(err, ErrBudgetInfeasible):
		return "budget-infeasible"
	case errors.Is(err, ErrUnsupportedQASM):
		return "unsupported-qasm"
	default:
		return "error"
	}
}

// wrap attaches a class sentinel to a formatted message.
func wrap(class error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), class)
}

// Invalidf returns an ErrInvalidConfig-classed error.
func Invalidf(format string, args ...any) error {
	return wrap(ErrInvalidConfig, format, args...)
}

// Numericalf returns an ErrNumerical-classed error.
func Numericalf(format string, args ...any) error {
	return wrap(ErrNumerical, format, args...)
}

// Budgetf returns an ErrBudgetInfeasible-classed error.
func Budgetf(format string, args ...any) error {
	return wrap(ErrBudgetInfeasible, format, args...)
}

// Interruptedf returns an ErrInterrupted-classed error.
func Interruptedf(format string, args ...any) error {
	return wrap(ErrInterrupted, format, args...)
}

// RecoverInto converts a panic in the calling function into a typed error
// assigned to *errp, preserving any error the function already set. Use at
// public boundaries whose internals legitimately panic on programmer-error
// invariants:
//
//	func Boundary() (err error) {
//	    defer simerr.RecoverInto(&err, simerr.ErrInvalidConfig)
//	    ...
//	}
func RecoverInto(errp *error, class error) {
	r := recover()
	if r == nil {
		return
	}
	if class == nil {
		class = ErrInvalidConfig
	}
	if pe, ok := r.(error); ok {
		*errp = fmt.Errorf("recovered panic: %v: %w", pe, class)
		return
	}
	*errp = fmt.Errorf("recovered panic: %v: %w", r, class)
}
