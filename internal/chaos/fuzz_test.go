package chaos

import (
	"encoding/json"
	"errors"
	"testing"

	"qisim/internal/simerr"
)

// FuzzParseSpec hammers the scenario-spec decoder behind qisimd's
// -chaos-spec file with arbitrary bytes. The invariants under fuzz:
//
//  1. ParseSpec never panics;
//  2. every error it returns is classed invalid config;
//  3. an accepted spec re-marshals and re-parses to an equal Spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"seed":11,"drop":0.2,"latency":{"p":0.5,"max_ms":20}}`,
		`{"reset":0.1,"duplicate":0.05,"reorder":{"p":0.2,"hold_ms":30},"corrupt":0.01,"truncate":0.02}`,
		`{"error_5xx":{"p":0.1,"len":4,"status":502,"retry_after_s":1},"abort":0.05}`,
		`{"drop":0.1} {"drop":0.9}`,
		`{"drop":7}`,
		`{"dorp":0.2}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Fatalf("error not classed invalid config: %v", err)
			}
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", s, err)
		}
		again, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", raw, err)
		}
		if again != s {
			t.Fatalf("round trip changed the spec:\n got  %+v\n want %+v", again, s)
		}
	})
}
