package dse

import (
	"context"

	"qisim/internal/simerr"
)

// DefaultWave is the number of grid points evaluated per wave when the
// policy does not override it.
const DefaultWave = 32

// Policy controls how a sweep walks its grid.
type Policy struct {
	// Wave is the number of points evaluated together; the sweep waits for
	// a whole wave to commit before deciding anything about the next one.
	Wave int `json:"wave,omitempty"`
	// Prune skips points whose optimistic bound is strictly dominated by
	// the committed frontier (safe: cannot change the final frontier).
	Prune bool `json:"prune"`
}

// Normalized applies defaults.
func (p Policy) Normalized() Policy {
	if p.Wave <= 0 {
		p.Wave = DefaultWave
	}
	return p
}

// EvalWave evaluates one wave of points and returns their objective
// metrics in the same order. RunSweep folds the returned metrics in
// point-index order, so how an implementation schedules the points inside
// a wave never affects the outcome.
type EvalWave func(ctx context.Context, pts []Point) ([]map[string]float64, error)

// BoundFn returns optimistic metrics for an unevaluated point: for every
// objective, a value at least as good as the point can actually achieve.
// nil disables pruning regardless of policy.
type BoundFn func(p Point) map[string]float64

// Progress is the per-wave report passed to the sweep observer.
type Progress struct {
	Wave      int      `json:"wave"`  // waves committed so far
	Waves     int      `json:"waves"` // total waves in the grid
	Evaluated int      `json:"evaluated"`
	Pruned    int      `json:"pruned"`
	Total     int      `json:"total"`
	Frontier  Snapshot `json:"frontier"`
}

// Outcome is the deterministic result of a sweep: for a fixed grid,
// objectives and policy it is identical no matter how EvalWave scheduled
// the work. It deliberately excludes volatile facts (cache hits, worker
// counts, timing) so its serialised form can be pinned byte-for-byte.
type Outcome struct {
	GridSize  int      `json:"grid_size"`
	Waves     int      `json:"waves"`
	Evaluated int      `json:"evaluated"`
	Pruned    int      `json:"pruned"`
	Frontier  Snapshot `json:"frontier"`
}

// RunSweep walks the grid in waves: each wave's unpruned points are handed
// to eval as a batch, the results fold into the frontier in index order,
// and only then is the next wave planned — so prune decisions depend only
// on fully-committed earlier waves (the committed-prefix rule, mirroring
// the Monte-Carlo engine's contiguous-prefix merge). onWave, if non-nil,
// observes the frontier after every committed wave.
//
// On cancellation (or an eval error) RunSweep returns the outcome built
// from the waves committed so far together with the error, so callers can
// publish a truncated partial with the same determinism guarantee.
func RunSweep(ctx context.Context, g Grid, objs []Objective, pol Policy, bound BoundFn, eval EvalWave, onWave func(Progress)) (Outcome, error) {
	if err := CheckObjectives(objs); err != nil {
		return Outcome{}, err
	}
	pts, err := g.Points()
	if err != nil {
		return Outcome{}, err
	}
	pol = pol.Normalized()
	out := Outcome{GridSize: len(pts), Waves: (len(pts) + pol.Wave - 1) / pol.Wave}
	frontier := NewFrontier(objs)
	out.Frontier = frontier.Snapshot()
	for w := 0; w < out.Waves; w++ {
		if err := ctx.Err(); err != nil {
			return out, simerr.Interruptedf("dse: sweep canceled after wave %d/%d: %v", w, out.Waves, err)
		}
		lo, hi := w*pol.Wave, (w+1)*pol.Wave
		if hi > len(pts) {
			hi = len(pts)
		}
		batch := make([]Point, 0, hi-lo)
		for _, p := range pts[lo:hi] {
			if pol.Prune && bound != nil && frontier.PruneBound(bound(p)) {
				out.Pruned++
				continue
			}
			batch = append(batch, p)
		}
		metrics, err := eval(ctx, batch)
		if err != nil {
			out.Frontier = frontier.Snapshot()
			return out, err
		}
		if len(metrics) != len(batch) {
			out.Frontier = frontier.Snapshot()
			return out, simerr.Numericalf("dse: eval returned %d results for a %d-point wave", len(metrics), len(batch))
		}
		for i, p := range batch {
			frontier.Add(Candidate{Index: p.Index, Params: p.Coords, Metrics: metrics[i]})
		}
		out.Evaluated += len(batch)
		out.Frontier = frontier.Snapshot()
		if onWave != nil {
			onWave(Progress{
				Wave: w + 1, Waves: out.Waves,
				Evaluated: out.Evaluated, Pruned: out.Pruned, Total: out.GridSize,
				Frontier: out.Frontier,
			})
		}
	}
	return out, nil
}
