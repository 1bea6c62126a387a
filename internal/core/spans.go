package core

import (
	"time"

	"lachesis/internal/span"
)

// SetSpans attaches a causal-trace recorder to the middleware. Every
// subsequent Step opens a "cycle" root span with "fetch" children per
// driver and a "binding" child per due binding (itself parenting
// "schedule", "apply", "guard", and "flush" spans), so a slow cycle can
// be attributed phase by phase. nil detaches tracing; instrumented paths
// then cost one pointer test.
func (m *Middleware) SetSpans(rec *span.Recorder) { m.spans = rec }

// Spans returns the attached trace recorder (nil when tracing is off).
func (m *Middleware) Spans() *span.Recorder { return m.spans }

// DefaultSpanFloor is the slow-span floor production deployments use: a
// healthy sub-millisecond schedule/apply/guard/flush phase is noise, and
// emitting ~4 leaf spans per binding per cycle is what pushes tracing
// overhead past its budget at hundreds of bindings. The floor sits above
// routine timer jitter (a 150µs modeled fetch oversleeps past 1ms on a
// loaded host) and far below a cycle period, so what emits is what
// genuinely shaped the cycle. Slow or failed phases — the ones a trace
// is consulted for — always emit.
const DefaultSpanFloor = 2 * time.Millisecond

// SetSpanFloor sets the slow-span floor for per-binding leaf phase
// spans. Zero (the default) emits every phase span, which tests and
// deep-dive debugging want; daemons pass DefaultSpanFloor.
func (m *Middleware) SetSpanFloor(d time.Duration) { m.spanFloor = d }

// DefaultSpanBudget is the per-cycle cap on non-error spans production
// deployments use. A degraded cycle pushes every fetch and phase over
// the slow-span floor simultaneously; the budget keeps the trace of such
// a cycle rich (hundreds of spans) while bounding what tracing can cost
// at the exact moment the host is struggling. Failed operations bypass
// the budget — errors are rare and are what the trace is for.
const DefaultSpanBudget = 512

// SetSpanBudget caps the number of non-error spans one cycle may emit.
// Zero (the default) is unlimited; daemons pass DefaultSpanBudget. When
// a cycle overruns its budget the cycle root span carries a
// "spans_dropped" attribute with the overflow count.
func (m *Middleware) SetSpanBudget(n int) { m.spanBudget = n }

// allowSpan charges one non-error span against the cycle's budget.
func (m *Middleware) allowSpan() bool {
	return m.spanBudget <= 0 || m.cycleSpans.Add(1) <= int64(m.spanBudget)
}

// emitPhase records a leaf phase span under the binding span when the
// phase failed or met the slow-span floor, reporting whether it did.
// The healthy fast path costs a compare — no allocation, no clock read
// beyond the one the caller already made for stats. The binding span's
// identity (*bctx) is minted lazily on the first phase that emits, so a
// fully-healthy binding never allocates an ID it won't use.
func (m *Middleware) emitPhase(bctx *span.Context, now time.Duration, name string, wall time.Duration, err error) bool {
	if m.spans == nil || (err == nil && wall < m.spanFloor) {
		return false
	}
	if err == nil && !m.allowSpan() {
		return false
	}
	if !bctx.Valid() {
		*bctx = m.spans.ChildContext(m.cycleCtx)
	}
	m.spans.Emit(*bctx, now, name, wall, err)
	return true
}

// phaseEnd closes one of the phases inside a binding's apply (translate,
// guard, flush), which began at start, and returns where the next one
// begins. Only a trace consumes these boundaries, so the clock is read only
// with a recorder attached; without one the phases run back to back
// unmeasured.
func (m *Middleware) phaseEnd(bctx *span.Context, now time.Duration, name string, start time.Time, err error, emitted *bool) time.Time {
	if m.spans == nil {
		return start
	}
	end := m.nowFn()
	if m.emitPhase(bctx, now, name, end.Sub(start), err) {
		*emitted = true
	}
	return end
}

// emitBinding closes a binding's span: it records only when the binding
// failed, crossed the slow-span floor, or any of its phase children
// emitted — an emitted child must never dangle from a suppressed parent.
// bctx is the identity emitPhase minted (zero when no child emitted; a
// fresh one is minted here if the binding itself warrants recording).
func (m *Middleware) emitBinding(bctx span.Context, now time.Duration, label string, wall time.Duration, err error, childEmitted bool) {
	if m.spans == nil {
		return
	}
	if err == nil && !childEmitted && wall < m.spanFloor {
		return
	}
	// A binding with an emitted child must record regardless of budget —
	// the child must not dangle — so only the healthy-slow case is charged.
	if err == nil && !childEmitted && !m.allowSpan() {
		return
	}
	if !bctx.Valid() {
		bctx = m.spans.ChildContext(m.cycleCtx)
	}
	if !bctx.Valid() {
		return
	}
	sp := span.Span{
		Trace: bctx.Trace, ID: bctx.Span, Parent: m.cycleCtx.Span,
		Name: "binding", At: now, Wall: wall,
		Attrs: span.Attrs{{K: "binding", V: label}},
	}
	if err != nil {
		sp.Err = err.Error()
	}
	m.spans.EmitSpan(sp)
}

// tracedFetch runs one driver's provider update, timing it for stats
// bookkeeping, and emits a "fetch" child span of the current cycle when
// the fetch failed or crossed the slow-span floor.
func (m *Middleware) tracedFetch(now time.Duration, d Driver) fetchOut {
	t0 := m.nowFn()
	vals, err := m.fetchOne(now, d)
	out := fetchOut{vals: vals, err: err, took: m.nowFn().Sub(t0)}
	if m.spans != nil && (err != nil || (out.took >= m.spanFloor && m.allowSpan())) {
		fctx := m.spans.ChildContext(m.cycleCtx)
		sp := span.Span{
			Trace: fctx.Trace, ID: fctx.Span, Parent: m.cycleCtx.Span,
			Name: "fetch", At: now, Wall: out.took,
			Attrs: span.Attrs{{K: "driver", V: d.Name()}},
		}
		if err != nil {
			sp.Err = err.Error()
		}
		m.spans.EmitSpan(sp)
	}
	return out
}
