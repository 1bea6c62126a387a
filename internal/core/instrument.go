package core

import (
	"fmt"
	"time"

	"lachesis/internal/telemetry"
)

// Telemetry metric names exported by the middleware. Counters that back
// the legacy accessors (PolicyRuns, ApplyErrors, PanicsRecovered) ARE the
// accessors' storage, so the registry and the Go API can never drift
// apart.
const (
	MetricStepsTotal         = "lachesis_steps_total"
	MetricStepSeconds        = "lachesis_step_seconds"
	MetricPolicyRunsTotal    = "lachesis_policy_runs_total"
	MetricApplyErrorsTotal   = "lachesis_apply_errors_total"
	MetricPanicsTotal        = "lachesis_panics_recovered_total"
	MetricScheduleSeconds    = "lachesis_schedule_seconds"
	MetricApplySeconds       = "lachesis_apply_seconds"
	MetricQuarantinedTotal   = "lachesis_quarantined_total"
	MetricBreakerTransitions = "lachesis_breaker_transitions_total"
	MetricFetchSeconds       = "lachesis_fetch_seconds"
	MetricFetchFailuresTotal = "lachesis_fetch_failures_total"
	MetricFetchStaleTotal    = "lachesis_fetch_stale_total"
	MetricPolicyClampedTotal = "lachesis_policy_clamped_total"
)

// mwInstruments caches the middleware-global instrument pointers so the
// step hot path never takes the registry lock.
type mwInstruments struct {
	steps       *telemetry.Counter
	stepSeconds *telemetry.Histogram
	policyRuns  *telemetry.Counter
	applyErrors *telemetry.Counter
	panics      *telemetry.Counter
}

// resolveInstruments (re)binds every cached instrument pointer against the
// current registry: the global ones here, the per-binding and per-driver
// ones on their owning structs.
func (m *Middleware) resolveInstruments() {
	m.ins = mwInstruments{
		steps:       m.tel.Counter(MetricStepsTotal),
		stepSeconds: m.tel.Histogram(MetricStepSeconds),
		policyRuns:  m.tel.Counter(MetricPolicyRunsTotal),
		applyErrors: m.tel.Counter(MetricApplyErrorsTotal),
		panics:      m.tel.Counter(MetricPanicsTotal),
	}
	for _, bp := range m.bindings {
		bp.resolve(m.tel)
	}
	for name, ds := range m.drivers {
		ds.resolve(m.tel, name)
	}
}

// Telemetry returns the middleware's metric registry (every middleware has
// one; NewMiddleware creates a private registry by default).
func (m *Middleware) Telemetry() *telemetry.Registry { return m.tel }

// SetTelemetry replaces the metric registry, e.g. to share one registry
// across middlewares or export it over HTTP. The lifetime counters
// (steps, policy runs, apply errors, panics) migrate their current values
// so the legacy accessors stay continuous; histograms and per-binding
// counters start empty in the new registry, so call SetTelemetry before
// the first Step for complete series. nil installs a fresh registry.
func (m *Middleware) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	old := m.ins
	m.tel = reg
	m.resolveInstruments()
	m.ins.steps.Add(old.steps.Value())
	m.ins.policyRuns.Add(old.policyRuns.Value())
	m.ins.applyErrors.Add(old.applyErrors.Value())
	m.ins.panics.Add(old.panics.Value())
}

// SetAudit installs a decision-audit trail: the middleware records apply
// outcomes, breaker transitions, quarantine skips, and driver failures
// into it, and stamps the binding context onto control-op events recorded
// by an AuditOS wrapper sharing the same trail. nil disables auditing.
func (m *Middleware) SetAudit(trail *AuditTrail) { m.audit = trail }

// Audit returns the installed audit trail (nil when auditing is off).
func (m *Middleware) Audit() *AuditTrail { return m.audit }

// resolve caches a binding's instrument pointers.
func (bp *boundPolicy) resolve(tel *telemetry.Registry) {
	l := telemetry.L("binding", bp.label)
	bp.hSchedule = tel.Histogram(MetricScheduleSeconds, l)
	bp.hApply = tel.Histogram(MetricApplySeconds, l)
	bp.ctrQuarantined = tel.Counter(MetricQuarantinedTotal, l)
	bp.tel = tel
}

// breakerCounter returns the transition counter for this binding and
// target state. Transitions are rare, so the registry lookup is fine.
func (bp *boundPolicy) breakerCounter(to string) *telemetry.Counter {
	return bp.tel.Counter(MetricBreakerTransitions,
		telemetry.L("binding", bp.label), telemetry.L("to", to))
}

// resolve caches a driver state's instrument pointers.
func (ds *driverState) resolve(tel *telemetry.Registry, name string) {
	l := telemetry.L("driver", name)
	ds.hFetch = tel.Histogram(MetricFetchSeconds, l)
	ds.ctrFailures = tel.Counter(MetricFetchFailuresTotal, l)
	ds.ctrStale = tel.Counter(MetricFetchStaleTotal, l)
}

// ClampRecorder builds the standard clamp observer for a binding: each
// clamped policy output increments lachesis_policy_clamped_total{binding}
// and records a clamp audit event naming the entity, the raw value, and
// the nice actually used. reg and trail may each be nil to skip that
// sink. Install it with NiceTranslator.ObserveClamps.
func ClampRecorder(reg *telemetry.Registry, trail *AuditTrail, binding string) ClampObserver {
	var ctr *telemetry.Counter
	if reg != nil {
		ctr = reg.Counter(MetricPolicyClampedTotal, telemetry.L("binding", binding))
	}
	return func(entity string, raw float64, clamped int) {
		if ctr != nil {
			ctr.Inc()
		}
		if trail != nil {
			trail.Record(AuditEvent{
				Kind: AuditKindClamp, Entity: entity, NewNice: nicep(clamped),
				Outcome: fmt.Sprintf("policy output %g clamped to nice %d", raw, clamped),
			})
		}
	}
}

// auditRecord records an event when auditing is enabled.
func (m *Middleware) auditRecord(e AuditEvent) {
	if m.audit != nil {
		m.audit.Record(e)
	}
}

// auditNoop is the shared no-op apply bracket: returning a package-level
// func keeps the audit-off hot path from allocating a closure per apply.
var auditNoop = func() {}

// auditApplyCtx brackets one translator apply with the binding's audit
// context; the returned func must be called when the apply finishes. A
// binding's applies never nest, so one context per binding suffices.
func (m *Middleware) auditApplyCtx(now time.Duration, bp *boundPolicy, entities map[string]Entity) func() {
	if m.audit == nil {
		return auditNoop
	}
	if bp.auditCtx == nil || bp.auditCtx.trail != m.audit {
		bp.auditCtx = newAuditCtx(m.audit, bp.policyName, bp.translatorName)
	}
	m.audit.beginApply(bp.auditCtx, now, entities)
	return bp.auditCtx.end
}
