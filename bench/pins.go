package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// pinsJSON holds the pinned expected outputs: the digest of every paper
// experiment and the reference rate of every Monte-Carlo estimate the
// workloads check. `go test -run TestPins -update` re-measures them.
//
//go:embed testdata/pins.json
var pinsJSON []byte

type pinned struct {
	Reproduce struct {
		// Pass is the sha256 of one pass's concatenated experiment outputs.
		Pass string `json:"pass_sha256"`
		// IDs is the sha256 of each experiment's output.
		IDs map[string]string `json:"ids"`
	} `json:"reproduce"`
	Bands map[string]band `json:"bands"`
}

// band is a reference event rate measured over Shots shots.
type band struct {
	Rate  float64 `json:"rate"`
	Shots int     `json:"shots"`
}

// bandSigmas is the width of a band in binomial standard deviations: wide
// enough that an honest estimate essentially never leaves it, narrow enough
// that a biased sampler or decoder does.
const bandSigmas = 6

// contains checks k events in n shots against the band. The width combines
// the estimate's and the reference's binomial errors.
func (b band) contains(k, n int) error {
	if n <= 0 {
		return fmt.Errorf("no shots")
	}
	v := b.Rate * (1 - b.Rate)
	sigma := math.Sqrt(v/float64(n) + v/float64(b.Shots))
	got := float64(k) / float64(n)
	if math.Abs(got-b.Rate) > bandSigmas*sigma {
		return fmt.Errorf("estimate %.6g (%d/%d) outside %g ± %d·%.3g", got, k, n, b.Rate, bandSigmas, sigma)
	}
	return nil
}

func loadPins() (pinned, error) {
	var p pinned
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("testdata/pins.json: %w", err)
	}
	return p, nil
}

// band returns the named band.
func (p pinned) band(name string) (band, error) {
	b, ok := p.Bands[name]
	if !ok || b.Shots <= 0 {
		return b, fmt.Errorf("no pinned band %q in testdata/pins.json", name)
	}
	return b, nil
}

// inputSeed derives the seed of input i from the run's seed (SplitMix64), so
// every input is fixed by --seed alone. The result is positive: the program
// reads a zero seed as "use the default".
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) + 1
}
