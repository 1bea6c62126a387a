package main

import (
	"fmt"
	"time"

	"lachesis/internal/core"
)

// A shim wraps one stage at its public interface and records a span per
// call. The program decides what to do by asserting optional capabilities
// on the next stage (BatchApplier switches the coalescer to its batch
// flush, CgroupRemover enables stale-group collection, InPlaceScheduler
// the allocation-free policy path), so a shim must expose exactly the
// capabilities of the stage it wraps — no fewer, or a path is lost; no
// more, or the traced run takes a path the untraced run does not.

// --- core.Driver ---

type driverShim struct {
	inner core.Driver
	t     *tracer
	b     int
}

var _ core.Driver = (*driverShim)(nil)

func (s *driverShim) Name() string                { return s.inner.Name() }
func (s *driverShim) Entities() []core.Entity     { return s.inner.Entities() }
func (s *driverShim) Provides(metric string) bool { return s.inner.Provides(metric) }

func (s *driverShim) Fetch(metric string, now time.Duration) (core.EntityValues, error) {
	t0, idx := s.t.enter(layerFetch, s.b)
	vals, err := s.inner.Fetch(metric, now)
	s.t.exit(layerFetch, s.b, t0, idx)
	return vals, err
}

// --- core.Policy ---

type policyShim struct {
	inner core.Policy
	t     *tracer
	b     int
}

func (s *policyShim) Name() string      { return s.inner.Name() }
func (s *policyShim) Metrics() []string { return s.inner.Metrics() }

func (s *policyShim) Schedule(view *core.View) (core.Schedule, error) {
	t0, idx := s.t.enter(layerPolicy, s.b)
	sched, err := s.inner.Schedule(view)
	s.t.exit(layerPolicy, s.b, t0, idx)
	return sched, err
}

// inPlacePolicyShim adds core.InPlaceScheduler. It names itself as the
// in-place target, as the wrapped policy does, so the middleware engages
// the in-place path for the shim exactly when it would for the policy.
type inPlacePolicyShim struct {
	policyShim
	ip core.InPlaceScheduler
}

func (s *inPlacePolicyShim) ScheduleInto(view *core.View, out *core.Schedule) error {
	t0, idx := s.t.enter(layerPolicy, s.b)
	err := s.ip.ScheduleInto(view, out)
	s.t.exit(layerPolicy, s.b, t0, idx)
	return err
}

func (s *inPlacePolicyShim) InPlaceTarget() core.Policy { return s }

func wrapPolicy(p core.Policy, t *tracer, b int) core.Policy {
	base := policyShim{inner: p, t: t, b: b}
	if ip, ok := p.(core.InPlaceScheduler); ok && ip.InPlaceTarget() == p {
		return &inPlacePolicyShim{policyShim: base, ip: ip}
	}
	return &base
}

// --- core.Translator ---

type translatorShim struct {
	inner core.Translator
	t     *tracer
	b     int
}

func (s *translatorShim) Name() string { return s.inner.Name() }

func (s *translatorShim) Apply(sched core.Schedule, entities map[string]core.Entity) error {
	t0, idx := s.t.enter(layerTranslate, s.b)
	err := s.inner.Apply(sched, entities)
	s.t.exit(layerTranslate, s.b, t0, idx)
	return err
}

// resetTranslatorShim adds core.Resetter.
type resetTranslatorShim struct {
	translatorShim
	r core.Resetter
}

func (s *resetTranslatorShim) Reset(entities map[string]core.Entity) error {
	return s.r.Reset(entities)
}

func wrapTranslator(tr core.Translator, t *tracer, b int) core.Translator {
	base := translatorShim{inner: tr, t: t, b: b}
	if r, ok := tr.(core.Resetter); ok {
		return &resetTranslatorShim{translatorShim: base, r: r}
	}
	return &base
}

// --- core.ApplyGuard ---

type guardShim struct {
	inner core.ApplyGuard
	t     *tracer
	b     int
}

var _ core.ApplyGuard = (*guardShim)(nil)

func (s *guardShim) BeginApply(now time.Duration, binding string, view *core.View) {
	s.inner.BeginApply(now, binding, view)
}

func (s *guardShim) FinishApply() error {
	t0, idx := s.t.enter(layerGuardFinish, s.b)
	err := s.inner.FinishApply()
	s.t.exit(layerGuardFinish, s.b, t0, idx)
	if err != nil {
		s.t.guardBlocked.Add(1)
	}
	return err
}

func (s *guardShim) AbandonApply(done <-chan struct{}) { s.inner.AbandonApply(done) }

// --- core.OSInterface ---

// osShim wraps a stage of the write chain that has no optional capability.
type osShim struct {
	inner core.OSInterface
	t     *tracer
	layer int
	b     int
}

var _ core.OSInterface = (*osShim)(nil)

func (s *osShim) SetNice(tid, nice int) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.inner.SetNice(tid, nice)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

func (s *osShim) EnsureCgroup(name string) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.inner.EnsureCgroup(name)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

func (s *osShim) SetShares(name string, shares int) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.inner.SetShares(name, shares)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

func (s *osShim) MoveThread(tid int, name string) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.inner.MoveThread(tid, name)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

// chainCaps are the three capabilities every wrapper of the write chain
// implements: removing cgroups, restoring placements, dropping caches.
type chainCaps interface {
	core.CgroupRemover
	core.PlacementRestorer
	core.CacheInvalidator
}

// chainShim wraps a stage with chainCaps.
type chainShim struct {
	osShim
	caps chainCaps
}

var _ chainCaps = (*chainShim)(nil)

func (s *chainShim) RemoveCgroup(name string) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.caps.RemoveCgroup(name)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

func (s *chainShim) RestoreThread(tid int) error {
	t0, idx := s.t.enter(s.layer, s.b)
	err := s.caps.RestoreThread(tid)
	s.t.exit(s.layer, s.b, t0, idx)
	return err
}

func (s *chainShim) InvalidateThread(tid int)     { s.caps.InvalidateThread(tid) }
func (s *chainShim) InvalidateCgroup(name string) { s.caps.InvalidateCgroup(name) }

// batchShim wraps a stage that also takes whole batches (the write queue).
type batchShim struct {
	chainShim
	batch core.BatchApplier
}

var _ core.BatchApplier = (*batchShim)(nil)

func (s *batchShim) ApplyBatch(ops []core.ControlOp, errs []error) {
	t0, idx := s.t.enter(s.layer, s.b)
	s.batch.ApplyBatch(ops, errs)
	s.t.exit(s.layer, s.b, t0, idx)
}

// observerShim wraps a stage that also reads kernel state back (the
// backend). Reads are forwarded untimed: they belong to the reconciler's
// pass, which is timed as a whole.
type observerShim struct {
	chainShim
	obs core.Observer
}

var _ core.Observer = (*observerShim)(nil)

func (s *observerShim) ObserveNice(tid int) (int, error)            { return s.obs.ObserveNice(tid) }
func (s *observerShim) ThreadIdentity(tid int) (uint64, error)      { return s.obs.ThreadIdentity(tid) }
func (s *observerShim) ObserveShares(name string) (int, error)      { return s.obs.ObserveShares(name) }
func (s *observerShim) InCgroup(tid int, name string) (bool, error) { return s.obs.InCgroup(tid, name) }

// wrapOS wraps one stage of the write chain in the shim that has exactly
// the stage's capabilities. It knows the four sets the chain is built
// from and refuses any other, rather than silently adding or dropping one.
func wrapOS(inner core.OSInterface, t *tracer, layer, b int) (core.OSInterface, error) {
	base := osShim{inner: inner, t: t, layer: layer, b: b}
	_, remover := inner.(core.CgroupRemover)
	_, restorer := inner.(core.PlacementRestorer)
	_, invalidator := inner.(core.CacheInvalidator)
	batch, batcher := inner.(core.BatchApplier)
	obs, observer := inner.(core.Observer)
	caps, full := inner.(chainCaps)
	switch {
	case !remover && !restorer && !invalidator && !batcher && !observer:
		return &base, nil
	case full && !batcher && !observer:
		return &chainShim{osShim: base, caps: caps}, nil
	case full && batcher && !observer:
		return &batchShim{chainShim: chainShim{osShim: base, caps: caps}, batch: batch}, nil
	case full && observer && !batcher:
		return &observerShim{chainShim: chainShim{osShim: base, caps: caps}, obs: obs}, nil
	}
	return nil, fmt.Errorf("bench: no shim for the capability set of %T (remover=%v restorer=%v invalidator=%v batch=%v observer=%v)",
		inner, remover, restorer, invalidator, batcher, observer)
}
