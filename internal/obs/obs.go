// Package obs is QIsim's dependency-free observability layer: a span-based
// tracer propagated through context.Context plus structured logging on
// log/slog, with a shared handler that stamps every record with the trace,
// span and job IDs carried by the context.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - Zero-cost when disabled: StartSpan on a context without a tracer is a
//     single context lookup returning a nil *Span, and every Span method is
//     nil-safe — the hot simulation paths carry the instrumentation
//     unconditionally and pay (almost) nothing when no tracer is installed.
//   - Bounded when enabled: each Tracer holds at most MaxSpans spans; spans
//     past the bound are counted as dropped and never block or grow memory,
//     and an event (Tracer.Event, a zero-length root span) past it
//     overwrites the oldest entry if that entry is an event, so a tracer of
//     events is a ring of the latest ones: qisimd's flight recorder.
//   - Deterministic in tests: the clock is injectable, and span IDs come
//     from a per-tracer counter — they never feed RNG seeding, so tracing
//     cannot perturb Monte-Carlo results.
//
// Finished traces export as JSON, as Chrome trace_event JSON (loadable in
// chrome://tracing and Perfetto) and as a compact indented text tree, each
// dated by the tracer's wall-clock epoch.
package obs

import (
	"context"
	"fmt"
	"strconv"
)

// Attr is one key/value annotation on a span. Values are stored as strings
// so traces round-trip bytes-exactly through the Chrome JSON exporter.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// context keys (unexported types so no external package can collide).
type tracerKey struct{}
type spanKey struct{}
type jobKey struct{}

// WithTracer returns a context carrying tr. Spans started from the returned
// context (and its descendants) are recorded on tr. A nil tr returns ctx
// unchanged.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// FromContext returns the tracer carried by ctx, or nil (tracing disabled).
func FromContext(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithJobID returns a context stamped with a job identity; the shared log
// handler attaches it to every record logged under the context.
func WithJobID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, jobKey{}, id)
}

// JobID returns the job identity carried by ctx ("" when absent).
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobKey{}).(string)
	return id
}

// StartSpan begins a span named name as a child of the span carried by ctx
// (a root span when there is none), on the tracer carried by ctx. It
// returns a derived context carrying the new span, and the span itself.
//
// Fast path: when ctx carries no tracer, StartSpan performs one context
// lookup and returns (ctx, nil); the nil *Span accepts End/SetAttr calls as
// no-ops, so call sites need no branches. When the tracer's span buffer is
// full the span is counted as dropped and (ctx, nil) is returned likewise —
// tracing degrades by losing spans, never by blocking the engine.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	s := tr.Start(name, SpanFromContext(ctx), attrs...)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// ContextWithSpan returns ctx carrying both tr and s, so spans started from
// the result nest under s. It is the bridge for callers (like the job
// manager) that create spans explicitly with Tracer.Start rather than
// through a context chain. Nil tr or s return ctx with whatever parts are
// non-nil.
func ContextWithSpan(ctx context.Context, tr *Tracer, s *Span) context.Context {
	ctx = WithTracer(ctx, tr)
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// fmtDur renders a nanosecond duration compactly for the text tree.
func fmtDur(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
