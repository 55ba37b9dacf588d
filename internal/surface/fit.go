package surface

import (
	"context"
	"math"

	"qisim/internal/simrun"
)

// FitResult is a projection-model fit from Monte-Carlo decoder data.
type FitResult struct {
	A   float64
	PTh float64
	// Points carries the (d, p, pL) samples the fit used.
	Points []FitPoint
}

// FitPoint is one MC sample.
type FitPoint struct {
	D  int
	P  float64
	PL float64
}

// FitProjection estimates the projection constants A and p_th of
// p_L = A·(p/p_th)^((d+1)/2) from code-capacity Monte-Carlo data at small
// distances — the self-consistency link between this repo's decoder and the
// calibrated analytic projection the scalability analysis uses.
//
// Method: for each (d, p) sample, ln p_L = ln A + ((d+1)/2)·(ln p − ln p_th)
// is linear in the two unknowns (ln A, ln p_th); solve by least squares. An
// invalid distance or probability is returned as an error.
func FitProjection(ds []int, ps []float64, shots int, seed int64) (FitResult, error) {
	var pts []FitPoint
	for _, d := range ds {
		for _, p := range ps {
			r, err := MonteCarloLogicalErrorCtx(context.Background(), d, p, shots, seed, simrun.Options{})
			if err != nil {
				return FitResult{}, err
			}
			seed++
			if r.Failures < 5 {
				continue // too noisy to use
			}
			pts = append(pts, FitPoint{D: d, P: p, PL: r.Rate()})
		}
	}
	// Least squares over x = (lnA, ln p_th):
	// ln pL_i = lnA + k_i·ln p_i − k_i·ln p_th, k_i = (d_i+1)/2.
	// Normal equations for [1, −k_i] basis.
	var s11, s12, s22, b1, b2 float64
	for _, pt := range pts {
		k := float64(pt.D+1) / 2
		y := math.Log(pt.PL) - k*math.Log(pt.P)
		// y = lnA − k·ln p_th
		s11++
		s12 += -k
		s22 += k * k
		b1 += y
		b2 += -k * y
	}
	det := s11*s22 - s12*s12
	res := FitResult{Points: pts}
	if det == 0 || len(pts) < 3 {
		return res, nil
	}
	lnA := (b1*s22 - b2*s12) / det
	lnPth := (s11*b2 - s12*b1) / det
	res.A = math.Exp(lnA)
	res.PTh = math.Exp(lnPth)
	return res, nil
}

// PredictsWithin reports whether the fit reproduces its own MC points within
// the given log-space factor — the quality gate of the fit.
func (f FitResult) PredictsWithin(factor float64) bool {
	if f.A == 0 || f.PTh == 0 {
		return false
	}
	pr := Projection{A: f.A, PTh: f.PTh}
	for _, pt := range f.Points {
		pr.D = pt.D
		pred := pr.Logical(pt.P)
		r := pred / pt.PL
		if r < 1 {
			r = 1 / r
		}
		if r > factor {
			return false
		}
	}
	return true
}
