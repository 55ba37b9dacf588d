package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/metrics"
	"qisim/internal/simerr"
)

// FuzzDecodeUnitResult hammers DecodeUnitResult with arbitrary bytes, both
// as an upload container and as the payload inside a well-framed one (the
// container CRC would otherwise stop nearly every input before the JSON and
// digest checks). The invariants under fuzz:
//
//  1. DecodeUnitResult never panics;
//  2. a failure is always a typed simerr.ErrInvalidConfig;
//  3. an accepted result survives EncodeUnitResult → DecodeUnitResult
//     unchanged: every field the fold reads or the digest covers is equal,
//     and the result re-encodes to the same bytes.
func FuzzDecodeUnitResult(f *testing.F) {
	u := UnitResult{Kind: "surface.mc", Key: "k-fuzz", Start: 4, End: 6,
		States: []json.RawMessage{[]byte(`{"n":16,"e":1}`), []byte(`{"n":16,"e":0}`)},
		Events: []int{1, 0}, Worker: "w1"}
	valid, err := EncodeUnitResult(u)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := checkpoint.DecodeContainer(valid)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: the valid container and its characteristic corruptions.
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                    // torn mid-payload
	f.Add(valid[:len(valid)-1])                    // torn by one byte
	f.Add(append(append([]byte{}, valid...), 'X')) // trailing byte
	bitflip := append([]byte{}, valid...)
	bitflip[len(valid)-5] ^= 0x01 // payload flip → CRC mismatch
	f.Add(bitflip)
	// Payloads, which the target also decodes inside a valid frame.
	f.Add(payload)
	forged := u
	forged.Version, forged.Digest = unitResultVersion, unitDigest(u)
	forged.States = []json.RawMessage{[]byte(`{"n":16,"e":9}`), u.States[1]}
	mismatch, err := json.Marshal(forged) // states altered, digest stale
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mismatch)
	// A state not in json.Marshal's compact form, with a digest over its
	// exact bytes. It must be rejected: re-encoding would compact the state
	// and so break the digest.
	spaced := u
	spaced.Version = unitResultVersion
	spaced.States = []json.RawMessage{[]byte(`{"n": 16, "e": 1}`), u.States[1]}
	spaced.Digest = unitDigest(spaced)
	compact, err := json.Marshal(spaced) // Marshal compacts the state back
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(compact, u.States[0], spaced.States[0], 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frameForTest(data)} {
			got, err := DecodeUnitResult(in)
			if err != nil {
				if !errors.Is(err, simerr.ErrInvalidConfig) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			enc, err := EncodeUnitResult(got)
			if err != nil {
				t.Fatalf("re-encode of an accepted result failed: %v", err)
			}
			back, err := DecodeUnitResult(enc)
			if err != nil {
				t.Fatalf("re-encoded result does not decode: %v", err)
			}
			again, err := EncodeUnitResult(back)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if string(again) != string(enc) {
				t.Fatalf("re-encoding is not stable:\n%q\n%q", enc, again)
			}
			got.Trace, got.Telemetry, back.Trace, back.Telemetry = nil, nil, nil, nil
			if !reflect.DeepEqual(back, got) {
				t.Fatalf("round trip changed the result:\n got  %+v\n back %+v", got, back)
			}
		}
	})
}

// FuzzLeaseGrant hammers decodeLeaseGrant, the decoder of a claim
// response, with arbitrary bytes. The invariants under fuzz:
//
//  1. decodeLeaseGrant never panics;
//  2. a failure is always a typed simerr.ErrInvalidConfig;
//  3. an accepted grant re-encodes, as the coordinator sends it, and
//     decodes to an equal grant with the same digest.
func FuzzLeaseGrant(f *testing.F) {
	g := LeaseGrant{Kind: "surface.mc", Key: "k-fuzz", Params: json.RawMessage(`{"distance":5,"shots":2000}`),
		Plan:  Plan{Shots: 2000, Seed: -7, ShardSize: 64, TargetRelStdErr: 0.05, MinShots: 500},
		Start: 4, End: 9, TTLMS: 2000, DeadlineMS: 30000}
	g.Digest = grantDigest(g)
	encode := func(g LeaseGrant) []byte {
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := encode(g)

	// Seed corpus: the valid grant, one without params, and the
	// characteristic corruptions.
	f.Add(valid)
	bare := LeaseGrant{Kind: "toy", Key: "k", Plan: Plan{Shots: 64, Seed: 3, ShardSize: 16}, End: 2, TTLMS: 1000}
	bare.Digest = grantDigest(bare)
	f.Add(encode(bare))
	f.Add(valid[:len(valid)/2]) // torn mid-body
	f.Add(append(append([]byte{}, valid...), '}'))
	tampered := g
	tampered.Start = 5 // rewritten in flight; digest now stale
	f.Add(encode(tampered))
	undigested := g
	undigested.Digest = ""
	f.Add(encode(undigested))
	// Params not in json.Marshal's form, with a digest over their exact
	// bytes. They must be refused: re-encoding would rewrite them and so
	// break the digest.
	for _, params := range []string{`{"distance": 5}`, `{"note":"<b>"}`} {
		odd := g
		odd.Params = json.RawMessage(params)
		odd.Digest = grantDigest(odd)
		canon := encode(odd) // Marshal rewrites the params
		f.Add(bytes.Replace(canon, []byte(`"params":`), []byte(`"params":`+params+`,"x":`), 1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeLeaseGrant(data)
		if err != nil {
			if !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-encode of an accepted grant failed: %v", err)
		}
		back, err := decodeLeaseGrant(enc)
		if err != nil {
			t.Fatalf("re-encoded grant refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, got) || back.Digest != got.Digest {
			t.Fatalf("round trip changed the grant:\n got  %+v\n back %+v", got, back)
		}
	})
}

// FuzzClaimRequest hammers the coordinator's decoders of a worker's JSON
// bodies, DecodeClaimRequest with arbitrary bytes and hold caps and
// DecodeRenewRequest with the same bytes. The invariants under fuzz:
//
//  1. neither decoder panics;
//  2. a failure is always a typed simerr.ErrInvalidConfig;
//  3. an accepted request names a worker (and a claim asks for a hold in
//     [0, cap]), and it re-encodes, as Client.Claim and Client.Renew send
//     it, to a body that decodes to the same request;
//  4. a body is one JSON object: an accepted body with bytes after it is
//     refused.
func FuzzClaimRequest(f *testing.F) {
	const trailing = `{"worker":"w1"} trailing`
	if _, err := DecodeClaimRequest(strings.NewReader(trailing), time.Second); err == nil {
		f.Fatalf("claim body %q accepted", trailing)
	}
	if _, err := DecodeRenewRequest(strings.NewReader(trailing)); err == nil {
		f.Fatalf("renew body %q accepted", trailing)
	}
	for _, body := range []string{
		`{"worker":"w1","idem_key":"w1.c7","wait_ms":250}`,
		`{"worker":"w1"}`,
		`{"worker":"w1","wait_ms":-5}`,
		`{"worker":"w1","wait_ms":9223372036854775807}`,
		`{"worker":"w1","wait_ms":1e3}`,
		`{"worker":"","wait_ms":10}`,
		`{"idem_key":"k"}`,
		`{"worker":"w1","wait_ms":"10"}`,
		`{"worker":"w1","key":"k","start":0,"end":4}`,
		`{"worker":"w1","key":"k","start":-1,"end":1e400}`,
		`{"worker":"w1"}` + " \t\r\n",
		trailing,
		`{"worker":"w1"}{}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body), int64(3750))
	}
	f.Add([]byte(`{"worker":"w1","wait_ms":40}`), int64(0))
	f.Add([]byte(`{"worker":"w1","wait_ms":40}`), int64(-1))

	f.Fuzz(func(t *testing.T, data []byte, capMS int64) {
		maxWait := time.Duration(min(max(capMS, 0), math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
		claim := func(body []byte) (ClaimRequest, error) {
			return DecodeClaimRequest(bytes.NewReader(body), maxWait)
		}
		renew := func(body []byte) (RenewRequest, error) { return DecodeRenewRequest(bytes.NewReader(body)) }

		if got, err := claim(data); checkDecoded(t, "claim", data, got, err, claim) {
			if got.Worker == "" {
				t.Fatalf("accepted a claim without a worker: %+v", got)
			}
			if w := got.Wait(); w < 0 || w > maxWait {
				t.Fatalf("decoded hold %v outside [0, %v]", w, maxWait)
			}
		}
		if got, err := renew(data); checkDecoded(t, "renew", data, got, err, renew) && got.Worker == "" {
			t.Fatalf("accepted a renew without a worker: %+v", got)
		}
	})
}

// checkDecoded checks one decoder's answer for body under FuzzClaimRequest's
// invariants 2 to 4 and reports whether it accepted the body.
func checkDecoded[R comparable](t *testing.T, name string, body []byte, got R, err error,
	decode func([]byte) (R, error)) bool {
	t.Helper()
	if err != nil {
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("untyped %s decode error: %v", name, err)
		}
		return false
	}
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("re-encode of an accepted %s failed: %v", name, err)
	}
	if back, err := decode(enc); err != nil || back != got {
		t.Fatalf("round trip changed the %s: %+v → %s → %+v, %v", name, got, enc, back, err)
	}
	if _, err := decode(append(slices.Clip(body), " x"...)); err == nil {
		t.Fatalf("%s body %q accepted with bytes after it", name, body)
	}
	return true
}

// FuzzTelemetry feeds arbitrary bytes to the coordinator's telemetry
// intake: a JSON array of report telemetry, one per worker in ID order,
// each checked as Report checks it, the accepted ones merged in order as
// qisimd_fleet_unit_seconds merges them, read with Quantile and rendered in
// the exposition format. Nothing may panic, repeated merges must agree bit
// for bit, and every accepted histogram and their merge must render
// cumulative buckets.
func FuzzTelemetry(f *testing.F) {
	valid := func(count uint64, chaos int64, buckets []uint64, sum float64) Telemetry {
		return Telemetry{Chaos: chaos, UnitSeconds: metrics.HistogramSummary{
			Bounds: metrics.DefaultLatencyBuckets(), Buckets: buckets, Sum: sum, Count: count}}
	}
	add := func(ts ...Telemetry) {
		b, err := json.Marshal(ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	a := valid(3, 2, []uint64{0, 0, 1, 2, 3, 3, 3, 3, 3, 3, 3}, 0.1)
	b := valid(2, 0, []uint64{0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1}, 0.2)
	c := valid(5, 0, []uint64{1, 1, 1, 1, 1, 1, 1, 2, 2, 5, 5}, 0.3)
	add(a, b, c)
	foreign := a
	foreign.UnitSeconds.Bounds = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 101}
	falling := b
	falling.UnitSeconds.Buckets = []uint64{0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1}
	over := c
	over.UnitSeconds.Buckets = []uint64{1, 1, 1, 1, 1, 1, 1, 2, 2, 5, 6}
	negative := a
	negative.Chaos = -1
	add(foreign, b, falling, over, negative, c)
	add(valid(math.MaxUint64, 0, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5}, 1e308),
		valid(1, 0, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 1e308))
	f.Add([]byte(`[{"unit_seconds":{"count":1}},{"unit_seconds":{"bounds":[2,1],"buckets":[9]}},null]`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var in []Telemetry
		if json.Unmarshal(data, &in) != nil {
			return
		}
		var accepted []metrics.HistogramSummary
		for i := range in {
			if in[i].valid() {
				accepted = append(accepted, in[i].UnitSeconds)
			}
		}
		merge := func() metrics.HistogramSummary {
			var out metrics.HistogramSummary
			for _, h := range accepted {
				out.Merge(h)
			}
			return out
		}
		fleet := merge()
		for i := 0; i < 4; i++ {
			if again := merge(); !sameHistogram(again, fleet) {
				t.Fatalf("merge = %+v, then %+v", fleet, again)
			}
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			fleet.Quantile(q)
		}
		for _, h := range append(accepted, fleet) {
			h.Quantile(0.5)
			out := renderHistogram(h)
			var prev uint64
			for _, line := range strings.Split(out, "\n") {
				series, val, _ := strings.Cut(line, " ")
				if !strings.HasPrefix(series, "h_bucket{") {
					continue
				}
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || n < prev {
					t.Fatalf("histogram renders non-cumulative buckets:\n%s", out)
				}
				prev = n
			}
		}
	})
}

// renderHistogram renders h in the exposition format as the family h.
func renderHistogram(h metrics.HistogramSummary) string {
	reg := metrics.New()
	reg.HistogramFunc("h", "", func() metrics.HistogramSummary { return h })
	var b strings.Builder
	reg.WritePrometheus(&b) //nolint:errcheck // a strings.Builder does not fail
	return b.String()
}

// sameHistogram reports whether a and b hold bitwise-equal summaries.
func sameHistogram(a, b metrics.HistogramSummary) bool {
	bits := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return slices.Equal(bits(a.Bounds), bits(b.Bounds)) && slices.Equal(a.Buckets, b.Buckets) &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count
}
