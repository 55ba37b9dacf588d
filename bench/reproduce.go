package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"time"

	"qisim/internal/experiments"
)

// heavyExperiments take about 95% of a reproduction pass (Table 1 and
// Fig. 14 through the gate-error kernels, the ablation suite), so each gets
// its own per-layer metric; the rest are summed into experiments.other_s.
var heavyExperiments = []string{"table1", "fig14", "ablations", "fig19", "fig11"}

// reproduce is what `qisim-experiments` does: every paper experiment, in
// order, by one serial caller. The paper models are deterministic, so the
// workload has no seeded inputs; every pass must reproduce the pinned
// outputs.
type reproduce struct {
	r    *run
	ids  []string
	pins pinned

	// Traced passes: wall clock and per-experiment time, in seconds.
	passWall []float64
	perID    map[string][]float64
}

func newReproduce(r *run) *reproduce {
	ids := experiments.IDs()
	if r.cfg.Quick {
		ids = slices.DeleteFunc(ids, func(id string) bool {
			return id == "table1" || id == "fig14" || id == "ablations"
		})
	}
	return &reproduce{r: r, ids: ids, perID: map[string][]float64{}}
}

func (w *reproduce) setup(context.Context) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	w.pins = p
	_, err = w.pass(false)
	return err
}

// pass runs every experiment once, checks the outputs against their pinned
// digests, and returns the pass's wall clock less the reference samples
// taken between experiments.
func (w *reproduce) pass(traced bool) (time.Duration, error) {
	var times map[string]float64
	if traced {
		times = map[string]float64{}
	}
	outs := make([]string, len(w.ids))
	passSpan := w.r.span("pass", nil)
	t0 := time.Now()
	var paused time.Duration
	for i, id := range w.ids {
		sp := w.r.span("experiments."+id, passSpan)
		s := time.Now()
		out, err := experiments.Run(id)
		d := time.Since(s)
		sp.End()
		if err != nil {
			passSpan.End()
			return 0, fmt.Errorf("experiment %s: %w", id, err)
		}
		outs[i] = out
		if traced {
			times[id] = d.Seconds()
		}
		paused += w.r.refPause()
	}
	wall := time.Since(t0) - paused
	passSpan.End()
	if traced {
		w.passWall = append(w.passWall, wall.Seconds())
		for id, s := range times {
			w.perID[id] = append(w.perID[id], s)
		}
	}
	return wall, w.verify(outs)
}

// verify compares one pass's outputs with the pinned digests.
func (w *reproduce) verify(outs []string) error {
	var errs []error
	whole := sha256.New()
	for i, out := range outs {
		whole.Write([]byte(out))
		sum := sha256.Sum256([]byte(out))
		if got, want := hex.EncodeToString(sum[:]), w.pins.Reproduce.IDs[w.ids[i]]; got != want {
			errs = append(errs, fmt.Errorf("experiment %s output sha256 %.12s, pinned %.12s", w.ids[i], got, want))
		}
	}
	if !w.r.cfg.Quick {
		if got := hex.EncodeToString(whole.Sum(nil)); got != w.pins.Reproduce.Pass {
			errs = append(errs, fmt.Errorf("pass output sha256 %.12s, pinned %.12s", got, w.pins.Reproduce.Pass))
		}
	}
	return errors.Join(errs...)
}

func (w *reproduce) measure(_ context.Context, deadline time.Time, traced bool) error {
	for time.Now().Before(deadline) {
		d, err := w.pass(traced)
		w.r.op(d, err)
	}
	return nil
}

func (w *reproduce) finish(_ context.Context, traced bool) error {
	if !traced || len(w.passWall) == 0 {
		return nil
	}
	n := len(w.passWall)
	other := make([]float64, n)
	unattributed := make([]float64, n)
	for i, wall := range w.passWall {
		var named, all float64
		for _, id := range w.ids {
			if len(w.perID[id]) == n {
				all += w.perID[id][i]
				if slices.Contains(heavyExperiments, id) {
					named += w.perID[id][i]
				}
			}
		}
		other[i] = all - named
		unattributed[i] = 1 - all/wall
	}
	for _, id := range heavyExperiments {
		w.r.put("experiments."+id+"_s", "s", median(w.perID[id]), len(w.perID[id]))
	}
	w.r.put("experiments.other_s", "s", median(other), n)
	w.r.put("experiments.unattributed_share", "ratio", median(unattributed), n)
	return nil
}

func (w *reproduce) close() {}
