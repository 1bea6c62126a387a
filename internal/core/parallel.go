package core

import (
	"errors"
	"fmt"
	"time"

	"lachesis/internal/span"
)

// ErrFetchTimeout reports that a driver's metric fetch exceeded
// Parallelism.FetchTimeout and was abandoned. The fetch goroutine keeps
// running until the driver returns; the provider's per-driver in-flight
// lock keeps the abandoned fetch from racing the next cycle's.
var ErrFetchTimeout = errors.New("core: metric fetch timeout")

// DefaultFetchWorkers is the default width of the decision cycle's worker
// pool. A cycle's waits are its fetches — each a monitoring-API round trip
// on a real deployment — so the pool is wider than any sensible core count;
// the applies that follow a fetch on the same worker are short and
// syscall-bound.
const DefaultFetchWorkers = 8

// Parallelism configures the decision cycle's worker pool. A cycle is one
// dependency-driven pass (see stepResilient): each pool job fetches one
// driver, and a binding runs — schedule, translate, apply — on the worker
// that saw its last driver answer, with no barrier between the cycle's
// fetches and its applies.
//
// With a DriverGate installed (SetWriteGate) and more than one worker,
// bindings over disjoint drivers run concurrently, in the order their
// fetches complete, and none waits for a driver it does not read.
// StepStats order, Health and the kernel state reached are those of one
// worker; a Policy or Translator instance shared across drivers sees its
// calls, and the audit trail its per-binding events, in completion order.
//
// Without a gate the middleware cannot tell which writes conflict, so
// bindings run one at a time and in binding order, each as soon as it and
// every binding bound before it is ready. Fetches still overlap, and the
// order of Schedule calls, audit events and writes is the same for every
// pool width.
type Parallelism struct {
	// Disabled runs the whole cycle inline on the stepping goroutine, in
	// driver order, with no fetch timeout (the reference stack the
	// repository benchmark checks the shipped one against).
	Disabled bool
	// FetchWorkers is the pool width: how many drivers may be in flight —
	// fetching, or running the bindings their fetch released — at once
	// (default DefaultFetchWorkers).
	FetchWorkers int
	// FetchTimeout abandons a driver fetch that takes longer (0 = no
	// timeout). An abandoned driver counts as failed this cycle and its
	// bindings fall back to last-good values within the staleness bound.
	FetchTimeout time.Duration
}

// DefaultParallelism returns the default pipeline configuration.
func DefaultParallelism() Parallelism {
	return Parallelism{FetchWorkers: DefaultFetchWorkers}
}

func (p Parallelism) withDefaults() Parallelism {
	if !p.Disabled && p.FetchWorkers <= 0 {
		p.FetchWorkers = DefaultFetchWorkers
	}
	return p
}

// SetParallelism replaces the pipeline configuration. Zero fields are
// filled with defaults; Parallelism{Disabled: true} restores the fully
// sequential cycle.
func (m *Middleware) SetParallelism(p Parallelism) { m.par = p.withDefaults() }

// SetWriteGate installs the per-driver write gate that makes concurrent
// binding applies safe: the worker running a binding locks its drivers, so
// bindings over disjoint SPEs proceed concurrently — in fetch-completion
// order, not binding order — while bindings sharing a driver — and
// therefore possibly threads and cgroups — serialize. Whole-chain writers
// (the reconciler, shutdown resets) use gate.ExclusiveOS. nil removes the
// gate; bindings then run one at a time, in binding order.
func (m *Middleware) SetWriteGate(g *DriverGate) { m.gate = g }

// sameInstance reports whether two interface values hold the same
// underlying instance. Non-comparable dynamic types report false instead
// of panicking.
func sameInstance(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// fetchOut is one driver's raw fetch result before bookkeeping.
type fetchOut struct {
	vals map[string]EntityValues
	err  error
	took time.Duration
}

// fetchOne updates one driver through the provider, abandoning the fetch
// after the configured timeout.
func (m *Middleware) fetchOne(now time.Duration, d Driver) (map[string]EntityValues, error) {
	timeout := m.par.FetchTimeout
	if timeout <= 0 {
		// An installed watchdog bounds fetches even when no explicit
		// fetch timeout is configured.
		timeout = m.phaseDeadline(PhaseFetch)
	}
	if m.par.Disabled || timeout <= 0 {
		return m.provider.UpdateOne(now, d)
	}
	done := make(chan fetchOut, 1)
	go func() {
		vals, err := m.provider.UpdateOne(now, d)
		done <- fetchOut{vals: vals, err: err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.vals, r.err
	case <-timer.C:
		m.provider.abandon(d.Name())
		if m.watchdog != nil {
			m.watchdog.PhaseOverrun(d.Name(), PhaseFetch, timeout)
		}
		return nil, fmt.Errorf("driver %s: %w after %v", d.Name(), ErrFetchTimeout, timeout)
	}
}

// stepResilient is the hardened cycle: breaker gating, then one
// dependency-driven pass over the worker pool. A pool job fetches one
// driver and settles that driver's state (last-good fallback,
// availability); every runnable binding counts its outstanding drivers in
// a per-cycle atomic, and the worker that drops a binding's count to zero
// runs it on the spot, under the binding's driver locks. No binding waits
// for a driver it does not read.
//
// Workers write only what they own for the cycle: the fetched driver's
// state and the binding's own state, its outcome included. What
// observers read in a fixed order — StepStats.Drivers and Bindings, the
// error list — is folded from those slots here, on the stepping
// goroutine, after the pool drains: driver order, then binding order,
// whichever worker finished first.
//
// The sequential configurations (Parallelism.Disabled, one worker, a
// closed pool) run the same job inline in driver order. Bindings run in
// completion order only where applies may be concurrent (a gate and more
// than one worker); everywhere else they run in binding order (see
// runInOrder).
func (m *Middleware) stepResilient(now time.Duration, due []*boundPolicy, stats *StepStats) []error {
	sc := &m.scratch
	sc.cycle++
	sc.now = now
	runnable := sc.runnable[:0]
	sc.drivers = sc.drivers[:0]
	for _, bp := range due {
		// Breaker gating first, so quarantined-only drivers are not
		// scraped.
		if bp.open && now < bp.openUntil {
			stats.Quarantined++
			bp.ctrQuarantined.Inc()
			stats.Bindings = append(stats.Bindings, BindingStepStats{
				Label:  bp.label,
				Policy: bp.policyName, Translator: bp.translatorName, Quarantined: true,
			})
			m.auditRecord(AuditEvent{
				At: now, Kind: AuditKindQuarantine,
				Policy: bp.policyName, Translator: bp.translatorName,
				Outcome: fmt.Sprintf("open until %v", bp.openUntil),
			})
			continue
		}
		bp.cycle = sc.cycle
		bp.pending.Store(bp.ndeps)
		runnable = append(runnable, bp)
		for i, ds := range bp.states {
			if ds.cycle != sc.cycle {
				// First runnable binding naming this driver: its instance
				// is the one fetched.
				ds.cycle = sc.cycle
				ds.d = bp.Drivers[i]
				sc.drivers = append(sc.drivers, ds)
			}
		}
	}
	sc.runnable = runnable

	// One driver per job: fetches are latency-bound round trips, and a
	// slow driver must never hold up another queued behind it.
	workers := m.par.FetchWorkers
	if m.par.Disabled {
		workers = 1
	}
	sc.ordered = m.gate == nil || workers <= 1
	sc.next = 0
	m.workerPool().run(workers, len(sc.drivers), m.cycleFn)

	var errs []error
	for _, ds := range sc.drivers {
		stats.Drivers = append(stats.Drivers, ds.stat)
		if ds.lastErr == nil {
			continue
		}
		errs = append(errs, fmt.Errorf("driver %s: %w", ds.name, ds.lastErr))
	}
	for _, bp := range runnable {
		out := &bp.outcome
		if !out.ran {
			continue // no usable driver: the binding did not run this period
		}
		stats.PoliciesRun++
		stats.Entities += out.entities
		stats.Bindings = append(stats.Bindings, out.bst)
		errs = append(errs, out.errs...)
	}
	return errs
}

// cycleJob is the cycle's one pool job, bound once as m.cycleFn: fetch
// driver i of the cycle, then run every runnable binding for which this
// was the last driver outstanding. The atomic decrement orders each
// earlier worker's driver-state writes before the run that reads them.
func (m *Middleware) cycleJob(i int) {
	sc := &m.scratch
	ds := sc.drivers[i]
	m.fetchDriver(sc.now, ds)
	ready := false
	for _, bp := range ds.dependents {
		if bp.cycle == sc.cycle && bp.pending.Add(-1) == 0 {
			if sc.ordered {
				ready = true
			} else {
				m.runReady(sc.now, bp)
			}
		}
	}
	if ready {
		m.runInOrder()
	}
	// Accounted after the bindings this fetch released have written.
	ds.hFetch.Observe(ds.stat.Fetch)
}

// runInOrder is how bindings run wherever applies cannot be concurrent —
// no DriverGate installed, or a single worker: one at a time and in
// binding order, so a Policy or Translator instance shared by several
// bindings sees the same call sequence, and the audit trail the same
// event sequence, whatever the pool width. The worker that completed a
// binding's last fetch runs the ready prefix of the runnable list; a ready
// binding behind an unready one is left to the worker that readies the
// latter (every binding is behind only bindings that will be readied, so
// the worker finishing the cycle's last fetch drains the list). Fetches
// still overlap each other and the applies; what this order gives up is
// that a binding waits for slower drivers of bindings bound before it.
func (m *Middleware) runInOrder() {
	sc := &m.scratch
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	for sc.next < len(sc.runnable) && sc.runnable[sc.next].pending.Load() == 0 {
		m.runReady(sc.now, sc.runnable[sc.next])
		sc.next++
	}
}

// fetchDriver updates one driver through the provider and settles its
// state for the cycle: health counters, last-good values, and ds.vals —
// what the driver's bindings read this cycle (nil when the driver is
// unusable). The fetch histogram is fed by cycleJob.
func (m *Middleware) fetchDriver(now time.Duration, ds *driverState) {
	r := m.tracedFetch(now, ds.d)
	ds.stat = DriverStepStats{Driver: ds.name, Fetch: r.took}
	if r.err == nil {
		ds.fails = 0
		ds.lastErr = nil
		ds.stale = false
		ds.lastSuccess = now
		ds.haveSuccess = true
		ds.lastGood = r.vals
		ds.lastGoodAt = now
		ds.vals = r.vals
		return
	}
	ds.fails++
	ds.lastErr = r.err
	ds.ctrFailures.Inc()
	ds.stat.Err = r.err.Error()
	// Last-good fallback: schedule on slightly stale metrics rather than
	// not at all.
	ds.stale = ds.lastGood != nil && now-ds.lastGoodAt <= m.res.StalenessBound
	ds.stat.Stale = ds.stale
	if ds.stale {
		ds.ctrStale.Inc()
		ds.vals = ds.lastGood
	} else {
		ds.vals = nil
	}
}

// runReady runs one binding whose drivers have all answered and files the
// result in bp.outcome. It holds the binding's driver locks — with no gate
// installed the caller holds the middleware-wide apply mutex instead (see
// runInOrder) — and the execution mutex the binding shares with any
// binding reusing its (possibly stateful) Policy or Translator instance.
func (m *Middleware) runReady(now time.Duration, bp *boundPolicy) {
	if m.gate != nil {
		ls := bp.lockSetFor(m.gate)
		ls.Lock()
		defer ls.Unlock()
	}
	bp.execMu.Lock()
	defer bp.execMu.Unlock()

	// A failed driver's audit event precedes the first apply that reads
	// the driver (stale values or none); bindings sharing a driver are
	// serialized by the locks above, which also guard ds.audited.
	usable := false
	for _, ds := range bp.states {
		usable = usable || ds.vals != nil
		if ds.lastErr != nil && ds.audited != ds.cycle {
			ds.audited = ds.cycle
			outcome := ds.lastErr.Error()
			if ds.stale {
				outcome = "stale-fallback: " + outcome
			}
			m.auditRecord(AuditEvent{At: now, Kind: AuditKindDriver, Driver: ds.name, Outcome: outcome})
		}
	}
	if usable {
		bp.outcome = m.runBinding(now, bp)
		return
	}
	// Every driver of this binding is down past the staleness bound: the
	// binding cannot run this period. recordFailure may reset it through
	// the OS chain, hence under the locks.
	bp.outcome = bindingOutcome{}
	blocked := make([]error, len(bp.states))
	for i, ds := range bp.states {
		blocked[i] = ds.lastErr
	}
	m.recordFailure(bp, now, fmt.Errorf("binding %s/%s: no usable drivers: %w",
		bp.policyName, bp.translatorName, errors.Join(blocked...)))
}

// bindingOutcome is one binding's result for the cycle, produced by the
// worker that ran it and folded into stats on the stepping goroutine.
type bindingOutcome struct {
	bst  BindingStepStats
	errs []error
	// ran marks a completed run (successful or not) — the binding
	// produced a stats entry. The zero outcome is a binding with no usable
	// driver.
	ran      bool
	entities int
}

// runBinding executes one binding's schedule + apply and its breaker
// bookkeeping. It runs on a worker holding the binding's driver locks;
// everything it touches is either binding-local (bp), settled for the
// cycle (its drivers' state), or internally synchronized (telemetry, audit
// trail, the OS chain).
func (m *Middleware) runBinding(now time.Duration, bp *boundPolicy) bindingOutcome {
	out := bindingOutcome{}
	out.ran = true
	bst := BindingStepStats{
		Label:      bp.label,
		Policy:     bp.policyName,
		Translator: bp.translatorName,
	}
	// The binding span's identity (bctx) starts zero and is minted by the
	// first phase that emits; the span itself is recorded only on failure,
	// slowness, or when a child emitted (emitBinding) — healthy bindings
	// pay duration compares, no span allocations at all.
	//
	// A healthy binding reads the clock three times: b0 starts the binding
	// and its schedule phase (the view build included), t1 ends the
	// schedule and starts the apply, and one read after the flush ends the
	// apply and the binding. The boundaries between translate, guard and
	// flush are read only for a recorder (phaseEnd).
	var bctx span.Context
	b0 := m.nowFn()
	childEmitted := false
	if bp.inflight.Load() {
		// A previous deadline-cancelled phase is still executing; refuse
		// this run rather than pile a second execution on top of it. The
		// check must precede buildView: the view scratch is reused across
		// cycles and the abandoned goroutine is still reading it — only
		// the inflight handshake (cleared after the zombie drains) makes
		// rewriting it safe.
		err := fmt.Errorf("binding %s: %w", bp.label, ErrRunInFlight)
		m.ins.applyErrors.Inc()
		bst.Err = err.Error()
		out.bst = bst
		out.errs = append(out.errs, err)
		m.recordFailure(bp, now, err)
		m.emitBinding(bctx, now, bp.label, m.nowFn().Sub(b0), err, childEmitted)
		return out
	}
	view := m.buildView(now, bp)
	out.entities = len(view.Entities)
	bst.Entities = len(view.Entities)
	sched, err := m.scheduleBounded(now, bp, view, m.phaseDeadline(PhaseSchedule))
	t1 := m.nowFn()
	bst.Schedule = t1.Sub(b0)
	if m.emitPhase(&bctx, now, "schedule", bst.Schedule, err) {
		childEmitted = true
	}
	if err != nil {
		bp.hSchedule.Observe(bst.Schedule)
		m.ins.applyErrors.Inc()
		err = fmt.Errorf("policy %s: %w", bp.policyName, err)
		bst.Err = err.Error()
		out.bst = bst
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindPolicyError, Policy: bst.Policy,
			Translator: bst.Translator, Outcome: err.Error(),
		})
		out.errs = append(out.errs, err)
		m.recordFailure(bp, now, err)
		m.emitBinding(bctx, now, bp.label, m.nowFn().Sub(b0), err, childEmitted)
		return out
	}
	done := m.auditApplyCtx(now, bp, view.Entities)
	if bp.Coalescer != nil {
		bp.Coalescer.Begin()
	}
	if bp.Guard != nil {
		bp.Guard.BeginApply(now, bp.label, view)
	}
	var aerr error
	// Apply deadlines require a guard: only its buffering makes the
	// cancellation safe (no op has reached the OS chain yet).
	if d := m.phaseDeadline(PhaseApply); d > 0 && bp.Guard != nil {
		aerr = m.applyBounded(now, bp, sched, view.Entities, d)
	} else {
		aerr = m.safeApply(bp.Translator, sched, view.Entities)
	}
	t := m.phaseEnd(&bctx, now, "apply", t1, aerr, &childEmitted)
	if bp.Guard != nil && !errors.Is(aerr, ErrPhaseDeadline) {
		gerr := bp.Guard.FinishApply()
		t = m.phaseEnd(&bctx, now, "guard", t, gerr, &childEmitted)
		aerr = errors.Join(aerr, gerr)
	}
	if bp.Coalescer != nil {
		// After a timed-out or guard-blocked apply the coalescer batch is
		// empty (the guard released nothing), so Flush closes it without
		// kernel writes and the last-applied mirror stays in force.
		ferr := bp.Coalescer.Flush()
		m.phaseEnd(&bctx, now, "flush", t, ferr, &childEmitted)
		aerr = errors.Join(aerr, ferr)
	}
	end := m.nowFn()
	bst.Apply = end.Sub(t1)
	done()
	// Accounting comes after the write, not before it: nothing between the
	// metric sample and the kernel write waits for a histogram.
	bp.hSchedule.Observe(bst.Schedule)
	bp.hApply.Observe(bst.Apply)
	m.auditRecord(AuditEvent{
		At: now, Kind: AuditKindApply, Policy: bst.Policy, Translator: bst.Translator,
		Entities: bst.Entities, Outcome: outcome(aerr),
	})
	if aerr != nil {
		m.ins.applyErrors.Inc()
		aerr = fmt.Errorf("translate %s/%s: %w", bp.policyName, bp.translatorName, aerr)
		bst.Err = aerr.Error()
		out.bst = bst
		out.errs = append(out.errs, aerr)
		m.recordFailure(bp, now, aerr)
		m.emitBinding(bctx, now, bp.label, end.Sub(b0), aerr, childEmitted)
		return out
	}
	out.bst = bst
	m.emitBinding(bctx, now, bp.label, end.Sub(b0), nil, childEmitted)
	m.ins.policyRuns.Inc()
	if bp.open {
		// Successful half-open probe: the breaker closes.
		bp.breakerCounter("closed").Inc()
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindBreaker, Policy: bst.Policy,
			Translator: bst.Translator, Outcome: "closed",
		})
	}
	bp.fails = 0
	bp.opens = 0
	bp.open = false
	bp.lastErr = nil
	bp.lastSuccess = now
	bp.haveSuccess = true
	// Swap, don't copy: this run's entity map becomes lastEntities, which
	// must survive quarantine resets that happen cycles later, and the
	// outgoing one becomes the scratch the binding's next run clears and
	// refills. Failed runs do not swap, so lastEntities stays that of the
	// last successful run.
	bp.lastEntities, bp.viewEntities = bp.viewEntities, bp.lastEntities
	return out
}
