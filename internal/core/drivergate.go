package core

import (
	"sort"
	"sync"
)

// DriverGate orders the writers of one OS chain: one write lock per
// driver, plus an exclusive mode for whole-chain writers (the reconciler,
// shutdown resets). Bindings over disjoint SPEs take disjoint locks and
// apply concurrently; bindings sharing a driver —
// and therefore potentially the same threads and cgroups — serialize on
// that driver's lock. The wrapped chain itself (AuditOS, RecordingOS, the
// control backends) is internally synchronized, so the gate only has to
// order *semantically conflicting* writes, not protect maps.
//
// Two entry points:
//
//   - LockSetFor(names) — taken by the middleware's apply workers around
//     one binding's schedule+apply. Locks are acquired in sorted name
//     order, so workers whose driver sets overlap cannot deadlock.
//   - ExclusiveOS(inner) — an OSInterface wrapper for the reconciler:
//     every op excludes ALL drivers, without holding up disjoint bindings
//     the rest of the time.
type DriverGate struct {
	// global is held shared by apply workers and exclusively by
	// ExclusiveOS ops, so a repair never interleaves with any apply.
	global sync.RWMutex

	mu        sync.Mutex
	perDriver map[string]*sync.Mutex
}

// NewDriverGate creates an empty gate; per-driver locks materialize on
// first use.
func NewDriverGate() *DriverGate {
	return &DriverGate{perDriver: make(map[string]*sync.Mutex)}
}

// lockFor returns the named driver's mutex, creating it on first use.
func (g *DriverGate) lockFor(name string) *sync.Mutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.perDriver[name]
	if !ok {
		l = &sync.Mutex{}
		g.perDriver[name] = l
	}
	return l
}

// DriverLockSet is a precomputed, deduplicated, sorted set of per-driver
// locks plus the shared gate hold. Callers bracket one binding's policy
// evaluation + translator apply with Lock/Unlock; bindings build one per
// gate at first apply (see boundPolicy.lockSetFor), so a cycle pays two
// function calls and no allocation.
type DriverLockSet struct {
	gate  *DriverGate
	locks []*sync.Mutex
}

// LockSetFor precomputes the lock set for the named drivers. Sorted-order
// acquisition keeps overlapping sets deadlock-free.
func (g *DriverGate) LockSetFor(names []string) *DriverLockSet {
	sorted := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			sorted = append(sorted, n)
		}
	}
	sort.Strings(sorted)
	ls := &DriverLockSet{gate: g, locks: make([]*sync.Mutex, 0, len(sorted))}
	for _, n := range sorted {
		ls.locks = append(ls.locks, g.lockFor(n))
	}
	return ls
}

// Lock acquires the shared gate hold and every driver lock in order.
func (ls *DriverLockSet) Lock() {
	ls.gate.global.RLock()
	for _, l := range ls.locks {
		l.Lock()
	}
}

// Unlock releases the driver locks in reverse order and the gate hold.
func (ls *DriverLockSet) Unlock() {
	for i := len(ls.locks) - 1; i >= 0; i-- {
		ls.locks[i].Unlock()
	}
	ls.gate.global.RUnlock()
}

// ExclusiveOS wraps inner so every control op holds the gate exclusively —
// no binding apply can be in flight while the op runs. This is the write
// path for the reconciler and for shutdown resets.
func (g *DriverGate) ExclusiveOS(inner OSInterface) OSInterface {
	return &exclusiveOS{gate: g, inner: inner}
}

// exclusiveOS is the OSInterface returned by ExclusiveOS.
type exclusiveOS struct {
	gate  *DriverGate
	inner OSInterface
}

var (
	_ OSInterface       = (*exclusiveOS)(nil)
	_ CgroupRemover     = (*exclusiveOS)(nil)
	_ PlacementRestorer = (*exclusiveOS)(nil)
	_ CacheInvalidator  = (*exclusiveOS)(nil)
)

// SetNice implements OSInterface.
func (x *exclusiveOS) SetNice(tid, nice int) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	return x.inner.SetNice(tid, nice)
}

// EnsureCgroup implements OSInterface.
func (x *exclusiveOS) EnsureCgroup(name string) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	return x.inner.EnsureCgroup(name)
}

// SetShares implements OSInterface.
func (x *exclusiveOS) SetShares(name string, shares int) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	return x.inner.SetShares(name, shares)
}

// MoveThread implements OSInterface.
func (x *exclusiveOS) MoveThread(tid int, name string) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	return x.inner.MoveThread(tid, name)
}

// RemoveCgroup implements CgroupRemover; a no-op when the wrapped
// interface lacks the capability.
func (x *exclusiveOS) RemoveCgroup(name string) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	if r, ok := x.inner.(CgroupRemover); ok {
		return r.RemoveCgroup(name)
	}
	return nil
}

// RestoreThread implements PlacementRestorer; a no-op when the wrapped
// interface lacks the capability.
func (x *exclusiveOS) RestoreThread(tid int) error {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	if r, ok := x.inner.(PlacementRestorer); ok {
		return r.RestoreThread(tid)
	}
	return nil
}

// InvalidateThread implements CacheInvalidator: invalidations exclude all
// applies, so a concurrent apply's read-check-update cannot be torn.
func (x *exclusiveOS) InvalidateThread(tid int) {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	InvalidateThreadState(x.inner, tid)
}

// InvalidateCgroup implements CacheInvalidator.
func (x *exclusiveOS) InvalidateCgroup(name string) {
	x.gate.global.Lock()
	defer x.gate.global.Unlock()
	InvalidateCgroupState(x.inner, name)
}
