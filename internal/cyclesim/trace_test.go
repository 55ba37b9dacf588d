package cyclesim

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"qisim/internal/compile"
	"qisim/internal/qasm"
)

func TestTraceRoundTrip(t *testing.T) {
	ex := compileSrc(t, "qreg q[2]; creg c[2]; h q[0]; cz q[0],q[1]; measure q[1]->c[1];", compile.DefaultOptions())
	r, err := Run(ex, CMOSConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildTrace(r)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.TotalNS != tr.TotalNS || len(back.Events) != len(tr.Events) {
		t.Fatal("trace round trip changed the timeline")
	}
	if back.Events[0].Name != tr.Events[0].Name {
		t.Fatal("event order changed")
	}
}

func TestTraceEventsOrderedAndBounded(t *testing.T) {
	ex := compileSrc(t, "qreg q[4]; h q[0]; h q[1]; cz q[0],q[1]; cz q[2],q[3]; h q[3];", compile.DefaultOptions())
	r, _ := Run(ex, CMOSConfig())
	tr := BuildTrace(r)
	prev := -1.0
	for _, e := range tr.Events {
		if e.StartNS < prev {
			t.Fatal("events must be sorted by start time")
		}
		prev = e.StartNS
		if e.EndNS < e.StartNS {
			t.Fatal("event ends before it starts")
		}
		if e.EndNS > tr.TotalNS+1e-9 {
			t.Fatal("event exceeds the makespan")
		}
	}
}

// Property: for random single-qubit gate programs, the makespan equals the
// longest per-qubit chain (no cross-qubit dependencies).
func TestQuickMakespanEqualsLongestChain(t *testing.T) {
	f := func(counts [4]uint8) bool {
		prog := &qasm.Program{NQubits: 4}
		longest := 0
		for q, c := range counts {
			n := int(c % 6)
			if n > longest {
				longest = n
			}
			for i := 0; i < n; i++ {
				prog.Gates = append(prog.Gates, qasm.Gate{Name: "x", Qubits: []int{q}, CBit: -1})
			}
		}
		if longest == 0 {
			return true
		}
		ex, err := compile.Compile(prog, compile.DefaultOptions())
		if err != nil {
			return false
		}
		cfg := CMOSConfig()
		cfg.DriveGroupSize = 1 // no structural hazards
		r, err := Run(ex, cfg)
		if err != nil {
			return false
		}
		want := float64(longest) * 25e-9
		return r.TotalTime > want-1e-12 && r.TotalTime < want+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding drive slots never slows a program down.
func TestQuickMoreSlotsNeverSlower(t *testing.T) {
	ex := compileSrc(t, "qreg q[8]; h q[0]; h q[1]; h q[2]; h q[3]; x q[4]; x q[5]; y q[6]; y q[7];", compile.DefaultOptions())
	prev := 1e9
	for slots := 1; slots <= 8; slots++ {
		cfg := Config{DriveGroupSize: 8, DriveSlots: slots, ReadoutGroupSize: 8, ReadoutSlots: 8}
		r, err := Run(ex, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalTime > prev+1e-15 {
			t.Fatalf("slots=%d slower than slots=%d", slots, slots-1)
		}
		prev = r.TotalTime
	}
}
