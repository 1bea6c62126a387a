package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// gateProbeOS flags any two control ops executing concurrently — the
// exact interleaving the DriverGate must prevent. Its maps are deliberately
// unsynchronized so `go test -race` also catches a broken gate.
type gateProbeOS struct {
	busy     int32
	overlaps int32
	nices    map[int]int
	shares   map[string]int
	placed   map[int]string
	removed  map[string]bool
	restored map[int]bool
	invTID   map[int]bool
	invGrp   map[string]bool
}

func newGateProbeOS() *gateProbeOS {
	return &gateProbeOS{
		nices:    make(map[int]int),
		shares:   make(map[string]int),
		placed:   make(map[int]string),
		removed:  make(map[string]bool),
		restored: make(map[int]bool),
		invTID:   make(map[int]bool),
		invGrp:   make(map[string]bool),
	}
}

func (o *gateProbeOS) enter() func() {
	if !atomic.CompareAndSwapInt32(&o.busy, 0, 1) {
		atomic.AddInt32(&o.overlaps, 1)
	}
	runtime.Gosched() // hold the op open so a broken gate lets another in
	return func() { atomic.StoreInt32(&o.busy, 0) }
}

func (o *gateProbeOS) SetNice(tid, nice int) error {
	defer o.enter()()
	o.nices[tid] = nice
	return nil
}
func (o *gateProbeOS) EnsureCgroup(name string) error {
	defer o.enter()()
	if _, ok := o.shares[name]; !ok {
		o.shares[name] = 1024
	}
	return nil
}
func (o *gateProbeOS) SetShares(name string, shares int) error {
	defer o.enter()()
	o.shares[name] = shares
	return nil
}
func (o *gateProbeOS) MoveThread(tid int, name string) error {
	defer o.enter()()
	o.placed[tid] = name
	return nil
}
func (o *gateProbeOS) RemoveCgroup(name string) error {
	defer o.enter()()
	o.removed[name] = true
	return nil
}
func (o *gateProbeOS) RestoreThread(tid int) error {
	defer o.enter()()
	o.restored[tid] = true
	return nil
}
func (o *gateProbeOS) InvalidateThread(tid int) {
	defer o.enter()()
	o.invTID[tid] = true
}
func (o *gateProbeOS) InvalidateCgroup(name string) {
	defer o.enter()()
	o.invGrp[name] = true
}

// TestExclusiveOSSerializes hammers one gate from three writer personas:
// two whole-chain writers going through ExclusiveOS (a reconciler-style
// invalidate-then-repair loop and a shutdown-style reset loop) and an
// apply worker that writes to the inner chain directly while holding its
// binding's DriverLockSet, as runReady does. The inner OS must never see
// two ops at once: exclusive ops exclude each other and every held lock
// set.
func TestExclusiveOSSerializes(t *testing.T) {
	probe := newGateProbeOS()
	gate := NewDriverGate()
	excl := gate.ExclusiveOS(probe)
	inv := excl.(CacheInvalidator)
	ls := gate.LockSetFor([]string{"spe"})

	const iters = 500
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // middleware apply path (incl. half-open probe re-applies)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ls.Lock()
			_ = probe.SetNice(11, i%5)
			_ = probe.EnsureCgroup("g")
			_ = probe.SetShares("g", 100+i%7)
			_ = probe.MoveThread(11, "g")
			ls.Unlock()
		}
	}()
	go func() { // reconciler repair path on the same entity
		defer wg.Done()
		for i := 0; i < iters; i++ {
			inv.InvalidateThread(11)
			_ = excl.SetNice(11, i%5)
			inv.InvalidateCgroup("g")
			_ = excl.SetShares("g", 100+i%7)
		}
	}()
	go func() { // shutdown reset path
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = excl.SetNice(11, 0)
			_ = excl.MoveThread(11, "")
		}
	}()
	wg.Wait()
	if n := atomic.LoadInt32(&probe.overlaps); n != 0 {
		t.Fatalf("inner OS saw %d overlapping control ops; gate must serialize", n)
	}
	if !probe.invTID[11] || !probe.invGrp["g"] {
		t.Fatalf("invalidations not forwarded: tid=%v grp=%v", probe.invTID[11], probe.invGrp["g"])
	}
}

// TestExclusiveOSCapabilityForwarding checks optional capabilities pass
// through when present and degrade to no-ops when absent.
func TestExclusiveOSCapabilityForwarding(t *testing.T) {
	probe := newGateProbeOS()
	excl := NewDriverGate().ExclusiveOS(probe)
	if err := excl.(CgroupRemover).RemoveCgroup("dead"); err != nil || !probe.removed["dead"] {
		t.Fatalf("RemoveCgroup not forwarded (err=%v)", err)
	}
	if err := excl.(PlacementRestorer).RestoreThread(7); err != nil || !probe.restored[7] {
		t.Fatalf("RestoreThread not forwarded (err=%v)", err)
	}
	excl.(CacheInvalidator).InvalidateThread(7)
	excl.(CacheInvalidator).InvalidateCgroup("dead")
	if !probe.invTID[7] || !probe.invGrp["dead"] {
		t.Fatalf("invalidations not forwarded: tid=%v grp=%v", probe.invTID[7], probe.invGrp["dead"])
	}

	// A bare OSInterface without the capabilities: calls are benign no-ops.
	bare := NewDriverGate().ExclusiveOS(newFakeOS())
	if err := bare.(CgroupRemover).RemoveCgroup("x"); err != nil {
		t.Fatalf("RemoveCgroup on bare OS: %v", err)
	}
	if err := bare.(PlacementRestorer).RestoreThread(1); err != nil {
		t.Fatalf("RestoreThread on bare OS: %v", err)
	}
	bare.(CacheInvalidator).InvalidateThread(1) // must not panic
	bare.(CacheInvalidator).InvalidateCgroup("x")
}

// TestAuditOSInvalidation checks the audit wrapper's same-value
// suppression caches are flushed by invalidation: a same-value re-apply
// normally produces no audit event, but after external drift the
// reconciler invalidates and the repair is re-audited (with the stale
// "old" value forgotten).
func TestAuditOSInvalidation(t *testing.T) {
	inner := newFakeOS()
	trail := NewAuditTrail(16, nil)
	os := AuditOS(inner, trail).(*auditedOS)

	if err := os.SetNice(11, -5); err != nil {
		t.Fatal(err)
	}
	before := trail.Total()
	// A same-value re-apply is suppressed from the trail.
	if err := os.SetNice(11, -5); err != nil {
		t.Fatal(err)
	}
	if trail.Total() != before {
		t.Fatalf("same-value re-apply was audited (total %d -> %d)", before, trail.Total())
	}
	// External interference changes the kernel value behind our back; the
	// reconciler invalidates, and the repair re-apply is audited again.
	inner.nices[11] = 0
	os.InvalidateThread(11)
	if err := os.SetNice(11, -5); err != nil {
		t.Fatal(err)
	}
	if trail.Total() != before+1 {
		t.Fatalf("post-invalidation repair not audited (total %d -> %d)", before, trail.Total())
	}
	events := trail.Last(1)
	if events[0].OldNice != nil {
		t.Fatalf("invalidation should forget the stale old value, got old=%d", *events[0].OldNice)
	}
	if got := inner.nices[11]; got != -5 {
		t.Fatalf("repair did not reach kernel: nice = %d", got)
	}

	if err := os.EnsureCgroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := os.SetShares("g", 512); err != nil {
		t.Fatal(err)
	}
	sharesBefore := trail.Total()
	if err := os.SetShares("g", 512); err != nil {
		t.Fatal(err)
	}
	if trail.Total() != sharesBefore {
		t.Fatal("same-value shares re-apply was audited")
	}
	os.InvalidateCgroup("g")
	if err := os.SetShares("g", 512); err != nil {
		t.Fatal(err)
	}
	if trail.Total() != sharesBefore+1 {
		t.Fatal("post-invalidation shares repair not audited")
	}
}
