package qisim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"qisim/internal/experiments"
)

// pinnedDigests reads the per-experiment report digests the benchmark pins
// in bench/testdata/pins.json. The root module cannot import the bench
// module, so this reads only the file's reproduce.ids map.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("bench/testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Reproduce struct {
			IDs map[string]string `json:"ids"`
		} `json:"reproduce"`
	}
	if err := json.Unmarshal(b, &pins); err != nil {
		t.Fatalf("bench/testdata/pins.json: %v", err)
	}
	return pins.Reproduce.IDs
}

// TestReproduceEveryExperiment regenerates every table and figure of the
// paper's evaluation, checks each report's sha256 against its pinned digest
// and logs the reports — the end-to-end reproduction entry point
// (`go test -run TestReproduceEveryExperiment -v`).
func TestReproduceEveryExperiment(t *testing.T) {
	pins := pinnedDigests(t)
	for _, id := range experiments.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			s, err := experiments.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(s, "==") {
				t.Fatalf("report missing header:\n%s", s)
			}
			t.Log("\n" + s)
			sum := sha256.Sum256([]byte(s))
			if got, want := hex.EncodeToString(sum[:]), pins[id]; got != want {
				t.Fatalf("report sha256 %s, pinned %q in bench/testdata/pins.json", got, want)
			}
		})
	}
}

// TestReproductionScorecard asserts the headline numbers stay within the
// documented bands of the paper's results.
func TestReproductionScorecard(t *testing.T) {
	hs := experiments.Headlines()
	if len(hs) < 13 {
		t.Fatalf("scorecard shrank: %d headlines", len(hs))
	}
	t.Log("\n" + experiments.HeadlineTable())
	if w := experiments.WorstHeadlineRatio(); w > 2.2 {
		t.Fatalf("worst headline deviation %.2fx exceeds the documented band", w)
	}
}
