package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"qisim/internal/experiments"
	"qisim/internal/readout"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

var update = flag.Bool("update", false, "re-measure testdata/pins.json")

// referenceSeed seeds the reference runs behind the pinned bands; the
// workloads' own seeds come from inputSeed and never repeat it in practice.
const referenceSeed = 20230617

// TestPins re-measures the pinned outputs with -update: the digest of every
// experiment (checked to repeat across two passes) and a reference rate for
// every Monte-Carlo configuration the workloads check. Without -update it
// only checks that the pins cover every experiment.
func TestPins(t *testing.T) {
	if !*update {
		p, err := loadPins()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range experiments.IDs() {
			if p.Reproduce.IDs[id] == "" {
				t.Errorf("experiment %s has no pinned digest", id)
			}
		}
		return
	}
	var p pinned
	p.Reproduce.IDs = map[string]string{}
	for pass := 0; pass < 2; pass++ {
		whole := sha256.New()
		for _, id := range experiments.IDs() {
			out, err := experiments.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			whole.Write([]byte(out))
			sum := sha256.Sum256([]byte(out))
			digest := hex.EncodeToString(sum[:])
			if prev := p.Reproduce.IDs[id]; prev != "" && prev != digest {
				t.Fatalf("experiment %s is not deterministic", id)
			}
			p.Reproduce.IDs[id] = digest
		}
		p.Reproduce.Pass = hex.EncodeToString(whole.Sum(nil))
	}

	ctx := context.Background()
	p.Bands = map[string]band{}
	for name, d := range map[string]int{"surface-d7": 7, "surface-d5": 5} {
		const shots = 1_000_000
		res, err := surface.MonteCarloPhenomenologicalCtx(ctx, d, 0.005, 0.005, d, shots, referenceSeed, simrun.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.Bands[name] = band{Rate: res.Rate(), Shots: res.Shots}
	}
	cfg := readout.DefaultMultiRoundConfig()
	cfg.Shots, cfg.Seed = 8_000_000, referenceSeed
	res, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), cfg, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Bands["readout-multiround"] = band{Rate: res.Error, Shots: res.Status.Completed}

	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/pins.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
