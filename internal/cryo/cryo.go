// Package cryo models the dilution refrigerator's temperature stages and
// their cooling budgets (Table 2: 1.5 W at 4 K, 200 µW at 100 mK, 20 µW at
// 20 mK). scalability.Analyze divides each stage's budget by the design's
// per-qubit power at that stage to find the qubit limit.
package cryo

import "qisim/internal/wiring"

// Budgets carries the cooling capacity of each stage in watts.
type Budgets map[wiring.Stage]float64

// DefaultBudgets returns the Table 2 / Krinner et al. capacities.
func DefaultBudgets() Budgets {
	return Budgets{
		wiring.Stage4K:    1.5,
		wiring.Stage100mK: 200e-6,
		wiring.Stage20mK:  20e-6,
	}
}

// ExtendedBudgets adds the 70 K stage (30 W, Krinner et al.) of the Section
// 7.3 extension, at which power-hungry components can be re-homed.
func ExtendedBudgets() Budgets {
	b := DefaultBudgets()
	b[wiring.Stage70K] = 30
	return b
}
