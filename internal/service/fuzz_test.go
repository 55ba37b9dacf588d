package service

import (
	"bytes"
	"context"
	"testing"

	"qisim/internal/simerr"
)

// FuzzJobRequest hammers the job-submission decoder with arbitrary bodies:
// decodeJobRequest, the strict decode handleSubmit runs on POST /v1/jobs,
// then buildJob with a live server's environment. The job is never run. The
// invariants under fuzz:
//
//  1. neither the body decode nor buildJob panics;
//  2. every buildJob failure carries a simerr class;
//  3. an accepted request builds a runner and a well-formed cache key, and
//     building it again gives the same kind and key.
func FuzzJobRequest(f *testing.F) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := srv.Drain(context.Background()); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	env := srv.env()

	// Seed corpus: one valid request per job kind.
	for _, body := range []string{
		`{"kind":"surface.mc","params":{"distance":5,"p":0.01,"shots":2000,"seed":7},"timeout_ms":300}`,
		`{"kind":"pauli.mc","params":{"qasm":"OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];","machine":"ibm_hanoi"}}`,
		`{"kind":"readout.mc","params":{"range":30,"max_rounds":6,"shots":4000,"seed":5}}`,
		`{"kind":"scalability.analyze","params":{"designs":["4K-CMOS-baseline"],"extended":true}}`,
		`{"kind":"scalability.sweep","params":{"design":"RSFQ-opt345","qubit_counts":[100,1000]}}`,
		`{"kind":"dse.point","params":{"design":"ERSFQ-opt8","distance":23,"extra_gate_error":1e-5}}`,
		`{"kind":"dse.sweep","params":{"axes":[{"name":"design","values":["4K-CMOS-baseline","ERSFQ-opt8"]},` +
			`{"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-4,"points":4}}],"wave":5}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			return // handleSubmit refuses the body itself, as invalid config
		}
		kind, key, run, err := buildJob(req, env)
		if err != nil {
			if simerr.Class(err) == "error" {
				t.Fatalf("untyped buildJob error: %v", err)
			}
			return
		}
		if run == nil || !key.Valid() {
			t.Fatalf("accepted request gave runner %v and key %q", run != nil, key)
		}
		kind2, key2, _, err := buildJob(req, env)
		if err != nil || kind2 != kind || key2 != key {
			t.Fatalf("second build: kind %q key %q err %v, first kind %q key %q", kind2, key2, err, kind, key)
		}
	})
}
