package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"qisim/internal/checkpoint"
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
			got.Trace, got.Metrics, back.Trace, back.Metrics = nil, nil, nil, nil
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
