package reconcile

import "lachesis/internal/core"

// RecordingOS wraps an OSInterface so every successful control write is
// mirrored into a DesiredState — the middleware's intent is captured at
// the exact point it becomes kernel state, with no translator changes.
// Wrap it *inside* the gate's exclusive view and around the audit wrapper:
//
//	gated := gate.ExclusiveOS(reconcile.RecordOS(core.AuditOS(ctl, trail), state, ident, names))
//
// ident supplies the thread identity token (core.Observer.ThreadIdentity)
// at record time, so desired entries are keyed to the thread occupying
// the TID *now*, not whatever recycles the TID later. nil (or an erroring
// lookup) records identity 0 = unknown, which disables the identity check
// for that entry.
type RecordingOS struct {
	inner core.OSInterface
	state *DesiredState
	ident func(tid int) uint64
	// entityOf optionally resolves a TID to an operator name for audit
	// attribution in desired entries.
	entityOf func(tid int) string
}

var (
	_ core.OSInterface       = (*RecordingOS)(nil)
	_ core.CgroupRemover     = (*RecordingOS)(nil)
	_ core.PlacementRestorer = (*RecordingOS)(nil)
	_ core.CacheInvalidator  = (*RecordingOS)(nil)
)

// RecordOS wraps inner so successful writes update state. ident and
// entityOf may be nil.
func RecordOS(inner core.OSInterface, state *DesiredState, ident func(tid int) uint64, entityOf func(tid int) string) *RecordingOS {
	if ident == nil {
		ident = func(int) uint64 { return 0 }
	}
	if entityOf == nil {
		entityOf = func(int) string { return "" }
	}
	return &RecordingOS{inner: inner, state: state, ident: ident, entityOf: entityOf}
}

// SetNice implements core.OSInterface.
func (r *RecordingOS) SetNice(tid, nice int) error {
	err := r.inner.SetNice(tid, nice)
	if err == nil {
		r.state.SetNice(tid, r.ident(tid), nice, r.entityOf(tid))
	} else if core.IsVanished(err) {
		r.state.ForgetThread(tid)
	}
	return err
}

// EnsureCgroup implements core.OSInterface. Creation alone records
// nothing: a cgroup only matters to reconciliation once it carries
// shares (translators always SetShares right after EnsureCgroup).
func (r *RecordingOS) EnsureCgroup(name string) error {
	return r.inner.EnsureCgroup(name)
}

// SetShares implements core.OSInterface.
func (r *RecordingOS) SetShares(name string, shares int) error {
	err := r.inner.SetShares(name, shares)
	if err == nil {
		r.state.SetShares(name, shares)
	} else if core.IsVanished(err) {
		r.state.ForgetCgroup(name)
	}
	return err
}

// MoveThread implements core.OSInterface.
func (r *RecordingOS) MoveThread(tid int, name string) error {
	err := r.inner.MoveThread(tid, name)
	if err == nil {
		r.state.SetPlacement(tid, r.ident(tid), name, r.entityOf(tid))
	} else if core.IsVanished(err) {
		r.state.ForgetThread(tid)
	}
	return err
}

// RemoveCgroup implements core.CgroupRemover: the group's shares intent
// and every placement into it are forgotten — the middleware decided the
// group should not exist, so reconciliation must not resurrect it.
func (r *RecordingOS) RemoveCgroup(name string) error {
	var err error
	if remover, ok := r.inner.(core.CgroupRemover); ok {
		err = remover.RemoveCgroup(name)
	}
	if err == nil || core.IsVanished(err) {
		r.state.ForgetCgroup(name)
	}
	return err
}

// RestoreThread implements core.PlacementRestorer: the thread returned to
// its pre-Lachesis cgroup, so the placement intent dissolves.
func (r *RecordingOS) RestoreThread(tid int) error {
	var err error
	if restorer, ok := r.inner.(core.PlacementRestorer); ok {
		err = restorer.RestoreThread(tid)
	}
	if err == nil || core.IsVanished(err) {
		r.state.ForgetPlacement(tid)
	}
	return err
}

// InvalidateThread implements core.CacheInvalidator (pass-through; the
// desired state is intent, not a cache — invalidation never touches it).
func (r *RecordingOS) InvalidateThread(tid int) {
	core.InvalidateThreadState(r.inner, tid)
}

// InvalidateCgroup implements core.CacheInvalidator.
func (r *RecordingOS) InvalidateCgroup(name string) {
	core.InvalidateCgroupState(r.inner, name)
}
