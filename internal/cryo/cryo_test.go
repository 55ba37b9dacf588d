package cryo

import (
	"testing"

	"qisim/internal/wiring"
)

func TestDefaultBudgetsTable2(t *testing.T) {
	b := DefaultBudgets()
	if b[wiring.Stage4K] != 1.5 || b[wiring.Stage100mK] != 200e-6 || b[wiring.Stage20mK] != 20e-6 {
		t.Fatalf("budgets %+v do not match Table 2", b)
	}
}

func TestExtendedBudgetsAdds70K(t *testing.T) {
	b := ExtendedBudgets()
	if b[wiring.Stage70K] != 30 {
		t.Fatalf("70K budget %v, want 30 W", b[wiring.Stage70K])
	}
	// Default stages unchanged.
	if b[wiring.Stage4K] != 1.5 {
		t.Fatal("extended budgets must not alter the 4K budget")
	}
}
