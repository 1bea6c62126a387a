package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/guard"
	"lachesis/internal/oslinux"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
)

// stack is one assembled program under test: a middleware, its bindings,
// and the write chain down to the benchmark's System.
type stack struct {
	sh    shape
	mw    *core.Middleware
	sys   *benchSystem
	trail *core.AuditTrail
	cos   []*core.Coalescer

	// Deep stacks only.
	queue *driver.SubmitQueue
	guard *guard.OpGuard
	rec   *reconcile.Reconciler
	spans *span.Recorder
	state *reconcile.DesiredState

	closers []func() error
}

// close stops the stack's goroutines and removes its files.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// step runs cycle c of Algorithm 1.
func (s *stack) step(c int) (core.StepStats, error) {
	return s.mw.Step(time.Duration(c) * period)
}

// counters are the lifetime counts a stack's stages keep; a window reports
// the difference between two readings.
type counters struct {
	Issued, Suppressed int64 // coalescers: ops passed on / swallowed
	AuditEvents        int64
	Spans              int64 // span recorder (deep stacks)
	QueueOps, Batches  int64 // write queue (deep stacks)
	Kinds              [numKinds]int64
	WriteErrs          int64
}

func (s *stack) counters() counters {
	c := counters{AuditEvents: s.trail.Total(), Spans: s.spans.Total(), WriteErrs: s.sys.writeErrs.Load()}
	for _, co := range s.cos {
		c.Issued += co.Issued()
		c.Suppressed += co.Suppressed()
	}
	if s.queue != nil {
		c.QueueOps, c.Batches = s.queue.Ops(), s.queue.Batches()
	}
	for k := range c.Kinds {
		c.Kinds[k] = s.sys.kinds[k].Load()
	}
	return c
}

func (c counters) minus(o counters) counters {
	c.Issued -= o.Issued
	c.Suppressed -= o.Suppressed
	c.AuditEvents -= o.AuditEvents
	c.Spans -= o.Spans
	c.QueueOps -= o.QueueOps
	c.Batches -= o.Batches
	c.WriteErrs -= o.WriteErrs
	for k := range c.Kinds {
		c.Kinds[k] -= o.Kinds[k]
	}
	return c
}

// cgroupRoot is the cgroup root every stack's oslinux.Control formats its
// paths under; the benchmark's System resolves them, so nothing is ever
// opened there.
const cgroupRoot = "/sys/fs/cgroup/cpu/lachesis"

// buildStack assembles the program for a shape with the defaults the
// binaries ship: core.DefaultParallelism, a DriverGate, per-binding
// coalescers, the audit trail on. With t non-nil every stage boundary is
// wrapped in a recording shim. dir is a scratch directory for stacks that
// need files.
func buildStack(in *inputs, t *tracer, dir string) (*stack, error) {
	s := &stack{sh: in.shape}
	if err := s.build(in, t, dir); err != nil {
		s.close() // the build error is the one worth reporting
		return nil, err
	}
	return s, nil
}

func (s *stack) build(in *inputs, t *tracer, dir string) error {
	sh := in.shape
	if sh.Deep {
		if dir == "" {
			return errors.New("bench: a file-backed stack needs a scratch directory")
		}
		s.closers = append(s.closers, func() error { return os.RemoveAll(dir) })
	}
	var err error
	if s.sys, err = newBenchSystem(sh, cgroupRoot, dir); err != nil {
		return err
	}
	s.sys.tr = t
	ctl, err := oslinux.New(oslinux.Config{Root: cgroupRoot, System: s.sys})
	if err != nil {
		return err
	}

	s.trail = core.NewAuditTrail(0, nil)
	s.mw = core.NewMiddleware(nil)
	s.closers = append(s.closers, func() error { s.mw.Close(); return nil })
	s.mw.SetAudit(s.trail)
	gate := core.NewDriverGate()
	s.mw.SetWriteGate(gate)
	ctl.SetTelemetry(s.mw.Telemetry())

	// wrap puts a recording shim above a stage in traced runs.
	wrap := func(stage core.OSInterface, layer, b int) (core.OSInterface, error) {
		if t == nil {
			return stage, nil
		}
		return wrapOS(stage, t, layer, b)
	}

	if sh.Deep {
		return s.buildDeep(in, t, dir, ctl, gate, wrap)
	}

	for b := 0; b < sh.Bindings; b++ {
		backend, err := wrap(ctl, layerBackend, b)
		if err != nil {
			return err
		}
		audited, err := wrap(core.AuditOS(backend, s.trail), layerAudit, b)
		if err != nil {
			return err
		}
		co := core.NewCoalescer(audited, nil)
		co.SetTelemetry(s.mw.Telemetry(), driverName(b))
		top, err := wrap(co, layerCoalesce, b)
		if err != nil {
			return err
		}
		s.cos = append(s.cos, co)
		if err := s.bind(in, t, b, core.Binding{
			Translator: newTranslator(sh, top),
			Coalescer:  co,
		}); err != nil {
			return err
		}
	}
	return nil
}

// newTranslator is the translator of the shape's scheduling mechanism over
// the top of a write chain.
func newTranslator(sh shape, top core.OSInterface) core.Translator {
	if sh.PerOpCgroups {
		return core.NewSharesTranslator(top, 0, 0)
	}
	return core.NewCombinedTranslator(top, 0, 0)
}

// bind completes and registers binding b: its driver, the QS policy
// (grouped per query unless every operator has a cgroup of its own), and
// in traced runs their shims.
func (s *stack) bind(in *inputs, t *tracer, b int, bd core.Binding) error {
	var drv core.Driver = newSynthDriver(in, b, s.sys)
	bd.Policy = core.NewQSPolicy()
	if !s.sh.PerOpCgroups {
		bd.Policy = core.GroupPerQuery(bd.Policy)
	}
	bd.Period = period
	if t != nil {
		drv = &driverShim{inner: drv, t: t, b: b}
		bd.Policy = wrapPolicy(bd.Policy, t, b)
		bd.Translator = wrapTranslator(bd.Translator, t, b)
		if bd.Guard != nil {
			bd.Guard = &guardShim{inner: bd.Guard, t: t, b: b}
		}
	}
	bd.Drivers = []core.Driver{drv}
	return s.mw.Bind(bd)
}

// Production settings of the deep chain. The deadlines are far above any
// healthy phase, so the watchdog's goroutine-and-timer per phase is paid
// but no cycle is ever cancelled; the guard's churn limit admits a shift
// of every entity, and its starvation detector is armed with a queue
// floor above every generated queue size, so it tracks every thread but
// never blocks a batch.
const (
	deepPhaseDeadline      = 5 * time.Second
	deepStarvationCycles   = 8
	deepStarvationMinQueue = 1e9
)

// noSyncFS is reconcile.OSFS with fsync elided. The desired-state log
// syncs after every record; lachesisd is meant to keep it on a filesystem
// where that is cheap. The benchmark may only write inside its checkout,
// which sits on whatever disk the host has, so the flush latency of that
// disk would be all the cycle measured.
type noSyncFS struct{ reconcile.OSFS }

type noSyncFile struct{ reconcile.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(name string) (reconcile.File, error) {
	file, err := f.OSFS.Create(name)
	return noSyncFile{file}, err
}

func (f noSyncFS) Append(name string) (reconcile.File, error) {
	file, err := f.OSFS.Append(name)
	return noSyncFile{file}, err
}

// buildDeep wires the single binding the way cmd/lachesisd's run() does
// with every optional subsystem on: translator -> guard.OpGuard ->
// Coalescer -> reconcile.RecordOS -> AuditOS -> write queue ->
// oslinux.Control, a persisted desired state, a reconciler over the
// exclusive gate, the watchdog and the span recorder at the production
// floor and budget.
func (s *stack) buildDeep(in *inputs, t *tracer, dir string, ctl *oslinux.Control, gate *core.DriverGate,
	wrap func(core.OSInterface, int, int) (core.OSInterface, error)) error {
	sh := in.shape
	if sh.Bindings != 1 {
		return fmt.Errorf("bench: the deep chain has one binding, not %d", sh.Bindings)
	}
	tel := s.mw.Telemetry()

	sfs, err := reconcile.NewOSFS(filepath.Join(dir, "state"))
	if err != nil {
		return err
	}
	store := reconcile.NewStore(noSyncFS{sfs}, nil)
	s.closers = append(s.closers, store.Close)
	s.state, err = reconcile.NewDesiredState(store)
	if err != nil {
		return err
	}
	entityByTID := make(map[int]string, sh.entities())
	for _, e := range in.entitiesOf(0) {
		entityByTID[e.Thread] = e.Name
	}
	entityOf := func(tid int) string { return entityByTID[tid] }

	backend, err := wrap(ctl, layerBackend, 0)
	if err != nil {
		return err
	}
	qos := driver.NewQueuedOS(backend, 0) // what ctl.Queued(0) builds, with the shim below the queue
	s.queue = qos.Queue()
	s.closers = append(s.closers, func() error { qos.Close(); return nil })
	s.queue.SetTelemetry(tel, "oslinux")
	queued, err := wrap(qos, layerSubmit, 0)
	if err != nil {
		return err
	}
	audited, err := wrap(core.AuditOS(queued, s.trail), layerAudit, 0)
	if err != nil {
		return err
	}
	recorded, err := wrap(reconcile.RecordOS(audited, s.state, ctl.Identity, entityOf), layerRecord, 0)
	if err != nil {
		return err
	}
	co := core.NewCoalescer(recorded, nil)
	co.SetTelemetry(tel, driverName(0))
	s.cos = []*core.Coalescer{co}
	coalesced, err := wrap(co, layerCoalesce, 0)
	if err != nil {
		return err
	}

	s.guard = guard.NewOpGuard(coalesced, guard.Invariants{
		MaxChurn:           2*sh.entities() + sh.groups(),
		StarvationCycles:   deepStarvationCycles,
		StarvationMinQueue: deepStarvationMinQueue,
	})
	s.guard.SetTelemetry(tel, "bench")
	s.guard.SetAudit(s.trail)
	guarded, err := wrap(s.guard, layerGuard, 0)
	if err != nil {
		return err
	}
	tr := newTranslator(sh, guarded)
	// lachesisd installs the clamp recorder on translators that renice.
	if ct, ok := tr.(interface{ ObserveClamps(core.ClampObserver) }); ok {
		ct.ObserveClamps(core.ClampRecorder(tel, s.trail, "bench"))
	}

	wd := guard.NewWatchdog(guard.WatchdogConfig{
		Fetch: deepPhaseDeadline, Schedule: deepPhaseDeadline, Apply: deepPhaseDeadline,
	})
	wd.SetTelemetry(tel)
	wd.SetAudit(s.trail)
	s.mw.SetWatchdog(wd)

	s.spans = span.New(span.Config{Process: "bench", Seed: in.seed | 1})
	s.mw.SetSpans(s.spans)
	s.mw.SetSpanFloor(core.DefaultSpanFloor)
	s.mw.SetSpanBudget(core.DefaultSpanBudget)

	start := time.Now()
	s.rec = reconcile.New(reconcile.Config{
		OS:        gate.ExclusiveOS(co),
		Observer:  ctl,
		State:     s.state,
		Audit:     s.trail,
		Telemetry: tel,
		Now:       func() time.Duration { return time.Since(start) },
		Spans:     s.spans,
	})
	return s.bind(in, t, 0, core.Binding{Translator: tr, Coalescer: co, Guard: s.guard})
}

// buildReference assembles the stack the correctness check trusts: the
// same inputs, policy and translator, stepped sequentially
// (Parallelism{Disabled: true}), with no coalescer, guard, recorder, audit
// wrapper or queue between the translator and the backend.
func buildReference(in *inputs) (*stack, error) {
	sh := in.shape
	sys, err := newBenchSystem(sh, cgroupRoot, "")
	if err != nil {
		return nil, err
	}
	s := &stack{sh: sh, sys: sys}
	ctl, err := oslinux.New(oslinux.Config{Root: cgroupRoot, System: s.sys})
	if err != nil {
		return nil, err
	}
	s.mw = core.NewMiddleware(nil)
	s.mw.SetParallelism(core.Parallelism{Disabled: true})
	for b := 0; b < sh.Bindings; b++ {
		if err := s.bind(in, nil, b, core.Binding{Translator: newTranslator(sh, ctl)}); err != nil {
			return nil, err
		}
	}
	return s, nil
}
