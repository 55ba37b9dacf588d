package simerr

import (
	"errors"
	"fmt"
	"testing"
)

func TestExitCodePerClass(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("plain"), ExitFailure},
		{Interruptedf("stopped"), ExitInterrupted},
		{Invalidf("bad knob"), ExitInvalid},
		{Numericalf("NaN"), ExitNumerical},
		{Budgetf("too few shots"), ExitBudget},
		{fmt.Errorf("qasm v3: %w", ErrUnsupportedQASM), ExitUnsupported},
		// Wrapping must not change the class.
		{fmt.Errorf("outer: %w", Numericalf("inner")), ExitNumerical},
		{fmt.Errorf("outer: %w", fmt.Errorf("mid: %w", ErrInterrupted)), ExitInterrupted},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestClassNames(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("plain"), "error"},
		{fmt.Errorf("ctx: %w", ErrInvalidConfig), "invalid-config"},
		{fmt.Errorf("ctx: %w", ErrNumerical), "numerical"},
		{fmt.Errorf("ctx: %w", ErrBudgetInfeasible), "budget-infeasible"},
		{fmt.Errorf("ctx: %w", ErrUnsupportedQASM), "unsupported-qasm"},
		{fmt.Errorf("ctx: %w", ErrInterrupted), "interrupted"},
	}
	for _, c := range cases {
		if got := Class(c.err); got != c.want {
			t.Errorf("Class(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestConstructorsTagAndCarryMessage(t *testing.T) {
	err := Invalidf("distance must be odd, got %d", 4)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatal("Invalidf did not tag ErrInvalidConfig")
	}
	if want := "distance must be odd, got 4: invalid configuration"; err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
	// Each constructor must tag exactly its own class.
	if errors.Is(err, ErrNumerical) || errors.Is(err, ErrInterrupted) {
		t.Fatal("Invalidf leaked into another class")
	}
}

func TestRecoverIntoConvertsPanic(t *testing.T) {
	f := func() (err error) {
		defer RecoverInto(&err, ErrNumerical)
		panic("matrix exploded")
	}
	err := f()
	if err == nil {
		t.Fatal("RecoverInto did not convert panic to error")
	}
	if !errors.Is(err, ErrNumerical) {
		t.Fatalf("recovered error %v is not ErrNumerical", err)
	}
}

func TestRecoverIntoDefaultsToInvalidConfig(t *testing.T) {
	f := func() (err error) {
		defer RecoverInto(&err, nil)
		panic("unclassified")
	}
	if err := f(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil-class recovery should default to ErrInvalidConfig, got %v", err)
	}
}

func TestRecoverIntoNoPanicIsNoop(t *testing.T) {
	f := func() (err error) {
		defer RecoverInto(&err, ErrNumerical)
		return nil
	}
	if err := f(); err != nil {
		t.Fatalf("RecoverInto injected error without panic: %v", err)
	}
}
