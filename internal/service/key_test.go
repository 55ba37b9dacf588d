package service

import (
	"encoding/json"
	"testing"

	"qisim/internal/jobs"
)

func keyOf(t *testing.T, kind, params string) (jobs.Kind, string) {
	t.Helper()
	k, key, run, err := buildJob(jobRequest{Kind: kind, Params: json.RawMessage(params)}, buildEnv{})
	if err != nil {
		t.Fatalf("buildJob(%s, %s): %v", kind, params, err)
	}
	if run == nil {
		t.Fatalf("buildJob(%s) returned nil runner", kind)
	}
	if !key.Valid() {
		t.Fatalf("buildJob(%s) returned malformed key %q", kind, key)
	}
	return k, string(key)
}

// TestKeyFieldOrderIndependence: the JSON field order of the params object
// must not change the cache key — the same request written two ways is the
// same computation.
func TestKeyFieldOrderIndependence(t *testing.T) {
	_, a := keyOf(t, "surface.mc", `{"distance":7,"p":0.004,"q":0.004,"shots":1000,"seed":9}`)
	_, b := keyOf(t, "surface.mc", `{"seed":9,"shots":1000,"q":0.004,"p":0.004,"distance":7}`)
	if a != b {
		t.Fatalf("field order changed the key:\n  %s\n  %s", a, b)
	}
}

// TestKeyDefaultVsExplicitEquivalence: omitting an option and writing its
// default explicitly must key identically, for every kind with defaults.
func TestKeyDefaultVsExplicitEquivalence(t *testing.T) {
	cases := []struct{ kind, omitted, explicit string }{
		{"surface.mc", `{}`,
			`{"distance":11,"p":0.005,"q":0.005,"rounds":11,"shots":200000,"seed":1,"rel_se":0,"shard_size":512}`},
		{"readout.mc", `{}`,
			`{"range":40,"max_rounds":8,"shots":400000,"seed":11,"shard_size":512}`},
		{"scalability.analyze", `{}`, `{"distance":23,"extended":false}`},
		{"scalability.sweep", `{"design":"4K-CMOS-baseline","qubit_counts":[100]}`,
			`{"design":"4K-CMOS-baseline","qubit_counts":[100],"distance":23,"extended":false}`},
	}
	for _, c := range cases {
		_, a := keyOf(t, c.kind, c.omitted)
		_, b := keyOf(t, c.kind, c.explicit)
		if a != b {
			t.Errorf("%s: omitted defaults key differently from explicit defaults:\n  %s\n  %s", c.kind, a, b)
		}
	}
}

// TestKeyIgnoresWorkers: the worker count is an execution hint — the sharded
// engine produces bit-identical bytes for every value — so it must not
// fragment the cache.
func TestKeyIgnoresWorkers(t *testing.T) {
	_, a := keyOf(t, "surface.mc", `{"distance":7,"shots":1000}`)
	_, b := keyOf(t, "surface.mc", `{"distance":7,"shots":1000,"workers":8}`)
	if a != b {
		t.Fatalf("workers leaked into the key:\n  %s\n  %s", a, b)
	}
}

// TestKeyDiscriminates: anything that changes the result bytes must change
// the key.
func TestKeyDiscriminates(t *testing.T) {
	_, base := keyOf(t, "surface.mc", `{"distance":7,"shots":1000}`)
	for name, alt := range map[string]string{
		"distance":   `{"distance":9,"shots":1000}`,
		"shots":      `{"distance":7,"shots":2000}`,
		"seed":       `{"distance":7,"shots":1000,"seed":2}`,
		"shard_size": `{"distance":7,"shots":1000,"shard_size":64}`,
	} {
		if _, k := keyOf(t, "surface.mc", alt); k == base {
			t.Errorf("%s change did not change the key", name)
		}
	}
	// Same params under a different kind must also differ.
	_, analyze := keyOf(t, "scalability.analyze", `{}`)
	if analyze == base {
		t.Fatal("kinds share a key")
	}
}

// TestKeyGolden pins the canonical key derivation: if this breaks, every
// deployed cache is invalidated, so the envelope version (rescache.KeyVersion)
// must be bumped deliberately rather than silently.
func TestKeyGolden(t *testing.T) {
	const golden = "8821fcf9f571e4391704ab30dd77db58a0d31f64657b83e4e773424c4bf54706"
	_, got := keyOf(t, "surface.mc", `{"distance":7,"p":0.004,"q":0.004,"shots":1000,"seed":9}`)
	if got != golden {
		t.Fatalf("golden key changed:\n  got  %s\n  want %s\n(bump rescache.KeyVersion if this is intentional)", got, golden)
	}
}

// TestBuildJobRejects: malformed requests must fail at build time with a
// typed invalid-config error (HTTP 400), never reach the queue.
func TestBuildJobRejects(t *testing.T) {
	for name, req := range map[string]jobRequest{
		"unknown kind":    {Kind: "bogus.kind"},
		"unknown field":   {Kind: "surface.mc", Params: json.RawMessage(`{"distanec":7}`)},
		"unknown design":  {Kind: "scalability.sweep", Params: json.RawMessage(`{"design":"nope","qubit_counts":[1]}`)},
		"no qubit counts": {Kind: "scalability.sweep", Params: json.RawMessage(`{"design":"4K-CMOS-baseline"}`)},
		"missing qasm":    {Kind: "pauli.mc", Params: json.RawMessage(`{}`)},
		"bad arch":        {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","arch":"gaas"}`)},
		// pauli.mc is closed form: the sampler's settings are unknown fields.
		"pauli.mc shots":      {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","shots":500}`)},
		"pauli.mc seed":       {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","seed":3}`)},
		"pauli.mc rel_se":     {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","rel_se":0.1}`)},
		"pauli.mc shard_size": {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","shard_size":64}`)},
		"pauli.mc workers":    {Kind: "pauli.mc", Params: json.RawMessage(`{"qasm":"OPENQASM 2.0;","workers":2}`)},
	} {
		if _, _, _, err := buildJob(req, buildEnv{}); err == nil {
			t.Errorf("%s: buildJob accepted a bad request", name)
		}
	}
}
