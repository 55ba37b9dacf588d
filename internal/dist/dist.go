// Package dist is QIsim's fault-tolerant distributed execution layer: a
// coordinator that splits a Monte-Carlo job's shard plan into leased work
// units across a fleet of qisimd workers, plus the worker-side
// claim/execute/report loop.
//
// Failure handling is first-class, not bolted on:
//
//   - every lease carries a deadline and is renewed by worker heartbeats;
//     an expired lease requeues its unit for retry with capped exponential
//     backoff + full jitter (internal/backoff),
//   - straggler tails are hedged: when no pending work remains, an old
//     enough outstanding unit is re-dispatched to a second worker and the
//     first result wins (work stealing),
//   - a worker joins with its first claim and is live while the
//     coordinator keeps hearing from it (claims, renewals, reports); one
//     not heard from for 2×LeaseTTL is lost, and its leases have expired
//     by then,
//   - shard-result upload is idempotent, keyed by (job, shard range):
//     duplicate and late completions are deduplicated, never
//     double-counted,
//   - an idle worker's claim waits at the coordinator for work (up to
//     LeaseTTL/4) instead of sleeping between polls, so a job's first
//     grant leaves the moment the job is admitted,
//   - degradation is graceful: a unit that exhausts its remote attempts
//     falls back to the coordinator's local lane, and while no worker is
//     live (a job admitted at boot, or a fleet lost mid-job) pending units
//     run there too, until a worker claims the rest,
//   - crash safety is the job's own checkpoint: Execute drives the
//     Progress, Checkpoint and Resume hooks of the core's simrun.Options
//     as RunFull does, so the coordinator keeps no durable state of its
//     own, and a snapshot written by either lane resumes on either.
//
// Determinism contract: a job's merged result is byte-identical whether it
// runs standalone, on a healthy fleet, or on a fleet with killed,
// restarted, partitioned, or slow workers. The mechanism is exact fold
// replay — workers return *per-shard* serialized accumulator states (not
// window-merged results), and the coordinator folds them in global shard
// order through the same merge and finish functions the standalone path
// uses, checking the convergence guard at every shard boundary exactly
// like simrun.RunSharded. The wire format is the QISNAP01 CRC-guarded
// container (internal/checkpoint), so a torn or bit-rotted upload is
// rejected, never merged.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"slices"

	"qisim/internal/checkpoint"
	"qisim/internal/metrics"
	"qisim/internal/obs"
	"qisim/internal/simerr"
	"qisim/internal/simrun"

	"context"
)

// ErrGone is the renewal/report verdict for a lease the coordinator no
// longer recognises (expired and re-dispatched, job finished, or
// coordinator restarted): the worker abandons the unit.
var ErrGone = errors.New("dist: lease gone")

// Plan fixes a job's shard geometry and convergence policy — everything a
// coordinator and its workers must agree on for the fold to be exact.
type Plan struct {
	// Shots is the shot budget.
	Shots int `json:"shots"`
	// Seed is the top-level RNG seed; per-shard streams derive from it.
	Seed int64 `json:"seed"`
	// ShardSize is the shots-per-shard partition (0 = DefaultShardSize).
	ShardSize int `json:"shard_size"`
	// TargetRelStdErr enables the coordinator-side convergence guard,
	// checked at every shard boundary of the contiguous done prefix.
	TargetRelStdErr float64 `json:"target_rel_std_err,omitempty"`
	// MinShots is the convergence floor (0 with a target = 1000, matching
	// simrun).
	MinShots int `json:"min_shots,omitempty"`
}

// Normalized fills the defaults simrun.RunSharded would apply, so geometry
// computed here matches a standalone run exactly.
func (p Plan) Normalized() Plan {
	if p.ShardSize <= 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	if p.TargetRelStdErr > 0 && p.MinShots == 0 {
		p.MinShots = 1000
	}
	return p
}

// NumShards returns the plan's shard count.
func (p Plan) NumShards() int {
	p = p.Normalized()
	return simrun.PlanShards(p.Shots, p.ShardSize)
}

// PrefixShots returns the shots covered by the first k shards.
func (p Plan) PrefixShots(k int) int {
	p = p.Normalized()
	return simrun.PlanShots(p.Shots, p.ShardSize, k)
}

// ShardShots returns shard i's shot count.
func (p Plan) ShardShots(i int) int {
	return p.PrefixShots(i+1) - p.PrefixShots(i)
}

// fold is the coordinator-side half of the determinism contract: it
// consumes per-shard serialized accumulator states in strictly ascending
// global shard order and finishes into the job's result bytes.
type fold interface {
	// add folds the next shard's state (ascending order is the caller's
	// obligation).
	add(state json.RawMessage) error
	// state is the accumulator folded so far: a checkpoint's
	// CheckpointState.State, live like the engine's.
	state() any
	// finish assembles the result bytes from the folded accumulator and
	// the run status the coordinator computed.
	finish(status simrun.Status) ([]byte, error)
}

// Core is the type-erased per-kind execution engine a Coordinator or
// Worker drives. NewCore adapts a generic (ShardFunc, MergeFunc, finish)
// triple; the concrete R never crosses the dist API.
type Core interface {
	// RunWindow executes shards [start,end) of the plan and returns each
	// shard's serialized accumulator state plus its event count, in shard
	// order. All-or-nothing: an interrupted window returns an error and no
	// states.
	RunWindow(ctx context.Context, p Plan, start, end int) (states []json.RawMessage, events []int, err error)
	// RunFull runs the whole plan locally through simrun.RunSharded — the
	// standalone path, sharing merge and finish with the fold so local and
	// distributed results cannot drift.
	RunFull(ctx context.Context, p Plan) ([]byte, simrun.Status, error)
	// options returns the engine options the core was built with; the
	// coordinator drives their Progress, Checkpoint and Resume as RunFull
	// hands them to the engine.
	options() simrun.Options
	// newFold starts a coordinator-side fold at the accumulator of
	// options().Resume (the zero accumulator without one).
	newFold() (fold, error)
}

// CoreSpec is the generic recipe NewCore adapts into a Core.
type CoreSpec[R any] struct {
	// Run is the per-shard sampler (pure given (Shard, RNG)).
	Run simrun.ShardFunc[R]
	// Merge folds one shard's partial into the accumulator, called in
	// strictly ascending shard order.
	Merge simrun.MergeFunc[R]
	// Finish assembles the job's result bytes from the folded accumulator
	// and the run status.
	Finish func(acc R, status simrun.Status) ([]byte, error)
	// Options carries engine tuning (Workers, CheckEvery) and the
	// checkpoint/resume/progress hooks, which RunFull and the coordinator's
	// fold drive alike. RunWindow strips convergence and the hooks: a
	// window is a dumb slice of work.
	Options simrun.Options
}

// NewCore adapts a CoreSpec into the type-erased Core interface.
func NewCore[R any](spec CoreSpec[R]) Core { return &core[R]{spec: spec} }

type core[R any] struct{ spec CoreSpec[R] }

func (c *core[R]) RunWindow(ctx context.Context, p Plan, start, end int) ([]json.RawMessage, []int, error) {
	p = p.Normalized()
	opt := c.spec.Options
	opt.ShardSize = p.ShardSize
	// A window has no stop decisions of its own: no convergence, no
	// checkpointing — those belong to the coordinator.
	opt.TargetRelStdErr = 0
	opt.MinShots = 0
	opt.Checkpoint = nil
	opt.Resume = nil
	opt.Progress = nil
	states := make([]json.RawMessage, 0, end-start)
	events := make([]int, 0, end-start)
	err := simrun.RunWindow(ctx, p.Shots, p.Seed, opt, start, end, c.spec.Run,
		func(sh simrun.Shard, res R, ev int) error {
			b, err := json.Marshal(res)
			if err != nil {
				return simerr.Invalidf("dist: marshal shard %d state: %v", sh.Index, err)
			}
			states = append(states, b)
			events = append(events, ev)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return states, events, nil
}

func (c *core[R]) options() simrun.Options { return c.spec.Options }

func (c *core[R]) newFold() (fold, error) {
	f := &typedFold[R]{spec: &c.spec}
	if r := c.spec.Options.Resume; r != nil && len(r.StateJSON) > 0 {
		if err := json.Unmarshal(r.StateJSON, &f.acc); err != nil {
			return nil, simerr.Invalidf("dist: resume state does not decode into %T: %v", f.acc, err)
		}
	}
	return f, nil
}

func (c *core[R]) RunFull(ctx context.Context, p Plan) ([]byte, simrun.Status, error) {
	// Plan defaults are left to RunSharded, which applies the convergence
	// floor only after its budget check (as the coordinator's fold does): a
	// run shorter than the floor spends its full budget instead of failing
	// as infeasible.
	opt := c.spec.Options
	opt.ShardSize = p.ShardSize
	opt.TargetRelStdErr = p.TargetRelStdErr
	opt.MinShots = p.MinShots
	acc, st, err := simrun.RunSharded(ctx, p.Shots, p.Seed, opt, c.spec.Run, c.spec.Merge)
	if err != nil {
		return nil, st, err
	}
	body, err := c.spec.Finish(acc, st)
	return body, st, err
}

type typedFold[R any] struct {
	spec *CoreSpec[R]
	acc  R
}

func (f *typedFold[R]) add(state json.RawMessage) error {
	var r R
	dec := json.NewDecoder(bytes.NewReader(state))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return simerr.Invalidf("dist: shard state does not decode into %T: %v", r, err)
	}
	f.spec.Merge(&f.acc, r)
	return nil
}

func (f *typedFold[R]) state() any { return f.acc }

func (f *typedFold[R]) finish(status simrun.Status) ([]byte, error) {
	return f.spec.Finish(f.acc, status)
}

// UnitResult is the idempotent shard-result upload: one work unit's
// per-shard states and event counts, keyed by (job key, shard range). It
// travels inside a QISNAP01 container so torn or corrupted uploads are
// rejected at the framing layer.
type UnitResult struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Key     string `json:"key"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	// States holds one serialized accumulator state per shard of
	// [Start,End), in shard order; Events the matching event counts.
	States []json.RawMessage `json:"states"`
	Events []int             `json:"events"`
	// Worker identifies the reporter (observability only — dedup is by
	// key+range, so two workers racing the same hedged unit collapse).
	Worker string `json:"worker,omitempty"`
	// Trace is the worker-side window trace, grafted into the job trace
	// by the coordinator so /v1/jobs/{id}/trace stitches a cross-node
	// tree.
	Trace *obs.Trace `json:"trace,omitempty"`
	// Telemetry is the worker's own account of its work (observability
	// only, like Worker and Trace, so it stays outside the content digest
	// and can never invalidate a result).
	Telemetry *Telemetry `json:"telemetry,omitempty"`
	// Digest is the SHA-256 over the semantic payload (kind, key, range,
	// states, events) — defense in depth past the container CRC: the CRC
	// catches wire corruption of the frame, the digest pins the *content*
	// the worker claims to have computed, so a proxy or middlebox that
	// rewrites JSON in flight (or a buggy worker that mutates states after
	// digesting) is caught before the fold.
	Digest string `json:"digest"`
}

// Telemetry is what a worker reports of itself on every unit report. Its
// counts are cumulative, so the coordinator keeps the latest it accepted.
type Telemetry struct {
	// UnitSeconds is the wall clock of the units the worker ran to
	// completion, on metrics.DefaultLatencyBuckets; its Count is the
	// worker's count of those units.
	UnitSeconds metrics.HistogramSummary `json:"unit_seconds"`
	// Chaos counts the faults the worker's chaos transport injected into
	// its own coordinator RPCs.
	Chaos int64 `json:"chaos,omitempty"`
}

// valid reports whether t can feed the fleet series: its chaos count is
// not negative, and its histogram has the workers' bucket layout with
// cumulative buckets that never fall and never pass its count. Other
// layouts would not merge bucket-wise into qisimd_fleet_unit_seconds.
func (t *Telemetry) valid() bool {
	h := t.UnitSeconds
	if t.Chaos < 0 || len(h.Buckets) != len(h.Bounds) ||
		!slices.Equal(h.Bounds, metrics.DefaultLatencyBuckets()) {
		return false
	}
	var prev uint64
	for _, n := range h.Buckets {
		if n < prev || n > h.Count {
			return false
		}
		prev = n
	}
	return true
}

// unitResultVersion is the current UnitResult schema version. v2 added the
// mandatory content digest; v1 payloads (pre-digest) are rejected and
// their units simply re-run.
const unitResultVersion = 2

// unitDigest hashes the semantic content of a unit result — the fields the
// fold consumes — with length framing so no two distinct payloads collide
// by concatenation. Worker/Trace/Version stay out: they are observability,
// not content.
func unitDigest(u UnitResult) string {
	h := sha256.New()
	var num [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(num[:], uint64(int64(v)))
		h.Write(num[:])
	}
	writeBytes := func(b []byte) {
		writeInt(len(b))
		h.Write(b)
	}
	writeBytes([]byte(u.Kind))
	writeBytes([]byte(u.Key))
	writeInt(u.Start)
	writeInt(u.End)
	for i, s := range u.States {
		writeBytes(s)
		writeInt(u.Events[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// grantDigest hashes a lease grant's every semantic field with length
// framing (Digest itself excluded). Stamped by the coordinator at grant
// time and verified by Client.Claim, so a grant corrupted in transit into
// still-parseable JSON is rejected instead of executed.
func grantDigest(g LeaseGrant) string {
	h := sha256.New()
	var num [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	writeBytes := func(b []byte) {
		writeU64(uint64(len(b)))
		h.Write(b)
	}
	writeBytes([]byte(g.Kind))
	writeBytes([]byte(g.Key))
	writeBytes(g.Params)
	writeU64(uint64(int64(g.Plan.Shots)))
	writeU64(uint64(g.Plan.Seed))
	writeU64(uint64(int64(g.Plan.ShardSize)))
	writeU64(math.Float64bits(g.Plan.TargetRelStdErr))
	writeU64(uint64(int64(g.Plan.MinShots)))
	writeU64(uint64(int64(g.Start)))
	writeU64(uint64(int64(g.End)))
	writeU64(uint64(g.TTLMS))
	writeU64(uint64(g.DeadlineMS))
	return hex.EncodeToString(h.Sum(nil))
}

// decodeLeaseGrant decodes a claim response and verifies the grant's
// digest, so a grant corrupted in transit into still-parseable JSON is
// refused instead of executed. Params must be in the form json.Marshal
// writes, compact and HTML-escaped, as the coordinator sends it: a grant in
// any other form would not keep its digest through a re-encode.
func decodeLeaseGrant(b []byte) (*LeaseGrant, error) {
	var g LeaseGrant
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, simerr.Invalidf("dist: undecodable lease grant: %v", err)
	}
	if len(g.Params) > 0 {
		if c, err := json.Marshal(g.Params); err != nil || !bytes.Equal(c, g.Params) {
			return nil, simerr.Invalidf("dist: lease grant params are not in encoded form")
		}
	}
	if g.Digest == "" || g.Digest != grantDigest(g) {
		return nil, simerr.Invalidf("dist: lease grant digest mismatch (response corrupted in transit)")
	}
	return &g, nil
}

// EncodeUnitResult frames a unit result for upload, stamping the content
// digest.
func EncodeUnitResult(u UnitResult) ([]byte, error) {
	u.Version = unitResultVersion
	if len(u.States) != u.End-u.Start || len(u.Events) != u.End-u.Start {
		return nil, simerr.Invalidf("dist: unit [%d,%d) has %d states / %d events, want %d",
			u.Start, u.End, len(u.States), len(u.Events), u.End-u.Start)
	}
	u.Digest = unitDigest(u)
	payload, err := json.Marshal(u)
	if err != nil {
		return nil, simerr.Invalidf("dist: marshal unit result: %v", err)
	}
	return checkpoint.EncodeContainer(payload), nil
}

// DecodeUnitResult verifies and parses an uploaded unit result.
func DecodeUnitResult(b []byte) (UnitResult, error) {
	payload, err := checkpoint.DecodeContainer(b)
	if err != nil {
		return UnitResult{}, err
	}
	var u UnitResult
	if err := json.Unmarshal(payload, &u); err != nil {
		return UnitResult{}, simerr.Invalidf("dist: undecodable unit result: %v", err)
	}
	if u.Version != unitResultVersion {
		return UnitResult{}, simerr.Invalidf("dist: unit result version %d unsupported (want %d)",
			u.Version, unitResultVersion)
	}
	if u.Key == "" || u.Kind == "" || u.Start < 0 || u.End <= u.Start {
		return UnitResult{}, simerr.Invalidf("dist: unit result missing key/kind or bad range [%d,%d)",
			u.Start, u.End)
	}
	if len(u.States) != u.End-u.Start || len(u.Events) != u.End-u.Start {
		return UnitResult{}, simerr.Invalidf("dist: unit [%d,%d) carries %d states / %d events, want %d",
			u.Start, u.End, len(u.States), len(u.Events), u.End-u.Start)
	}
	for i, s := range u.States {
		// EncodeUnitResult writes a state as json.Marshal does, compact and
		// HTML-escaped; one in any other form would not survive re-encoding
		// under its digest.
		if c, err := json.Marshal(s); err != nil || !bytes.Equal(c, s) {
			return UnitResult{}, simerr.Invalidf("dist: unit [%d,%d) state %d is not in encoded form",
				u.Start, u.End, i)
		}
	}
	if u.Digest == "" {
		return UnitResult{}, simerr.Invalidf("dist: unit [%d,%d) missing content digest", u.Start, u.End)
	}
	if want := unitDigest(u); u.Digest != want {
		return UnitResult{}, simerr.Invalidf("dist: unit [%d,%d) digest mismatch (payload altered in flight)",
			u.Start, u.End)
	}
	return u, nil
}
