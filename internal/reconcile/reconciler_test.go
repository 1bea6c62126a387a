package reconcile

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/telemetry"
)

// fakeKernel is kernel scheduling state for tests: threads with nice
// values and identity tokens, cgroups with shares, thread->cgroup
// membership. It implements both sides of the OS interface
// (core.OSInterface writes, core.Observer reads) and is internally
// synchronized so race tests can interfere from other goroutines.
type fakeKernel struct {
	mu     sync.Mutex
	nices  map[int]int
	ident  map[int]uint64 // tid -> identity token; absence = dead thread
	groups map[string]int // name -> shares
	member map[int]string
	writes int // kernel-reaching control writes
}

func newFakeKernel() *fakeKernel {
	return &fakeKernel{
		nices:  make(map[int]int),
		ident:  make(map[int]uint64),
		groups: make(map[string]int),
		member: make(map[int]string),
	}
}

func vanished(what string) error {
	return fmt.Errorf("%s: %w", what, core.ErrEntityVanished)
}

// spawn registers a live thread.
func (k *fakeKernel) spawn(tid int, identity uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ident[tid] = identity
	k.nices[tid] = 0
}

// kill removes a thread.
func (k *fakeKernel) kill(tid int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.ident, tid)
	delete(k.nices, tid)
	delete(k.member, tid)
}

// interfereNice overwrites a thread's nice behind the middleware's back.
func (k *fakeKernel) interfereNice(tid, nice int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.ident[tid]; ok {
		k.nices[tid] = nice
	}
}

// interfereShares overwrites a cgroup's shares.
func (k *fakeKernel) interfereShares(name string, shares int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.groups[name]; ok {
		k.groups[name] = shares
	}
}

// deleteGroup tears a cgroup down, kicking members to the root.
func (k *fakeKernel) deleteGroup(name string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.groups, name)
	for tid, g := range k.member {
		if g == name {
			delete(k.member, tid)
		}
	}
}

// kickMember removes a thread from its cgroup without deleting the group.
func (k *fakeKernel) kickMember(tid int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.member, tid)
}

func (k *fakeKernel) niceOf(tid int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nices[tid]
}

func (k *fakeKernel) sharesOf(name string) (int, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.groups[name]
	return s, ok
}

func (k *fakeKernel) memberOf(tid int) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.member[tid]
}

// --- core.OSInterface ---

func (k *fakeKernel) SetNice(tid, nice int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.ident[tid]; !ok {
		return vanished("setnice")
	}
	k.nices[tid] = nice
	k.writes++
	return nil
}
func (k *fakeKernel) EnsureCgroup(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.groups[name]; !ok {
		k.groups[name] = 1024
		k.writes++
	}
	return nil
}
func (k *fakeKernel) SetShares(name string, shares int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.groups[name]; !ok {
		return vanished("setshares")
	}
	k.groups[name] = shares
	k.writes++
	return nil
}
func (k *fakeKernel) MoveThread(tid int, name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.ident[tid]; !ok {
		return vanished("move")
	}
	if _, ok := k.groups[name]; !ok {
		return vanished("move")
	}
	k.member[tid] = name
	k.writes++
	return nil
}

// --- core.Observer ---

func (k *fakeKernel) ObserveNice(tid int) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.ident[tid]; !ok {
		return 0, vanished("observe nice")
	}
	return k.nices[tid], nil
}
func (k *fakeKernel) ThreadIdentity(tid int) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	id, ok := k.ident[tid]
	if !ok {
		return 0, vanished("identity")
	}
	return id, nil
}
func (k *fakeKernel) ObserveShares(name string) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	s, ok := k.groups[name]
	if !ok {
		return 0, vanished("observe shares")
	}
	return s, nil
}
func (k *fakeKernel) InCgroup(tid int, name string) (bool, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.groups[name]; !ok {
		return false, vanished("incgroup")
	}
	if _, ok := k.ident[tid]; !ok {
		return false, vanished("incgroup")
	}
	return k.member[tid] == name, nil
}

// cachedOS mimics a production control backend: it memoizes applied
// values and skips kernel writes it believes redundant — exactly the
// behavior that makes external drift sticky unless the reconciler
// invalidates. Synchronized because the race test drives it through an
// exclusive gate from two goroutines (the gate serializes, but the fake stays
// honest on its own).
type cachedOS struct {
	mu     sync.Mutex
	inner  *fakeKernel
	nices  map[int]int
	shares map[string]int
	placed map[int]string
}

func newCachedOS(k *fakeKernel) *cachedOS {
	return &cachedOS{
		inner:  k,
		nices:  make(map[int]int),
		shares: make(map[string]int),
		placed: make(map[int]string),
	}
}

func (c *cachedOS) SetNice(tid, nice int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.nices[tid]; ok && v == nice {
		return nil
	}
	if err := c.inner.SetNice(tid, nice); err != nil {
		return err
	}
	c.nices[tid] = nice
	return nil
}
func (c *cachedOS) EnsureCgroup(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shares[name]; ok {
		return nil
	}
	return c.inner.EnsureCgroup(name)
}
func (c *cachedOS) SetShares(name string, shares int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.shares[name]; ok && v == shares {
		return nil
	}
	if err := c.inner.SetShares(name, shares); err != nil {
		return err
	}
	c.shares[name] = shares
	return nil
}
func (c *cachedOS) MoveThread(tid int, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.placed[tid]; ok && g == name {
		return nil
	}
	if err := c.inner.MoveThread(tid, name); err != nil {
		return err
	}
	c.placed[tid] = name
	return nil
}
func (c *cachedOS) InvalidateThread(tid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.nices, tid)
	delete(c.placed, tid)
}
func (c *cachedOS) InvalidateCgroup(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.shares, name)
}

// world wires a full reconcile stack over a fake kernel, the way
// lachesisd does: gate -> recording -> caching backend -> kernel.
type world struct {
	kernel *fakeKernel
	cached *cachedOS
	os     core.OSInterface
	state  *DesiredState
	trail  *core.AuditTrail
	reg    *telemetry.Registry
	rec    *Reconciler
}

func newWorld(t *testing.T, cfg func(*Config)) *world {
	t.Helper()
	w := &world{kernel: newFakeKernel(), reg: telemetry.NewRegistry()}
	w.cached = newCachedOS(w.kernel)
	state, err := NewDesiredState(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.state = state
	w.trail = core.NewAuditTrail(256, nil)
	ident := func(tid int) uint64 {
		id, err := w.kernel.ThreadIdentity(tid)
		if err != nil {
			return 0
		}
		return id
	}
	w.os = core.NewDriverGate().ExclusiveOS(RecordOS(w.cached, state, ident, nil))
	c := Config{
		OS:        w.os,
		Observer:  w.kernel,
		State:     state,
		Audit:     w.trail,
		Telemetry: w.reg,
		Clock:     func() time.Time { return time.Unix(0, 0) },
	}
	if cfg != nil {
		cfg(&c)
	}
	w.rec = New(c)
	return w
}

// apply writes desired values through the recorded chain, as a
// translator would.
func (w *world) apply(t *testing.T, tid int, nice int) {
	t.Helper()
	if err := w.os.SetNice(tid, nice); err != nil {
		t.Fatalf("apply nice tid=%d: %v", tid, err)
	}
}

func (w *world) applyGroup(t *testing.T, name string, shares int, members ...int) {
	t.Helper()
	if err := w.os.EnsureCgroup(name); err != nil {
		t.Fatal(err)
	}
	if err := w.os.SetShares(name, shares); err != nil {
		t.Fatal(err)
	}
	for _, tid := range members {
		if err := w.os.MoveThread(tid, name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconcileConvergedWorldIsQuiet(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.kernel.spawn(12, 200)
	w.apply(t, 11, -5)
	w.apply(t, 12, 3)
	w.applyGroup(t, "q1", 512, 11, 12)

	res := w.rec.Reconcile()
	if !res.Converged || res.Drifted != 0 || res.Repaired != 0 {
		t.Fatalf("expected quiet converged pass, got %+v", res)
	}
	if res.Checked != w.state.Len() {
		t.Fatalf("checked %d of %d entries", res.Checked, w.state.Len())
	}
}

func TestReconcileExternalOverwrite(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.apply(t, 11, -5)
	w.applyGroup(t, "q1", 512, 11)

	w.kernel.interfereNice(11, 10)
	w.kernel.interfereShares("q1", 2)

	res := w.rec.Reconcile()
	if res.Drifted != 2 || res.ByClass[DriftExternalOverwrite] != 2 {
		t.Fatalf("expected 2 external-overwrite drifts, got %+v", res)
	}
	if res.Repaired != 2 {
		t.Fatalf("expected 2 repairs, got %+v", res)
	}
	if got := w.kernel.niceOf(11); got != -5 {
		t.Fatalf("nice not restored: %d", got)
	}
	if got, _ := w.kernel.sharesOf("q1"); got != 512 {
		t.Fatalf("shares not restored: %d", got)
	}

	// The repair went through the caching backend: without invalidation
	// the cache (which still said -5/512) would have swallowed it.
	var drifts, repairs int
	for _, ev := range w.trail.Last(0) {
		switch ev.Kind {
		case core.AuditKindDrift:
			drifts++
		case core.AuditKindRepair:
			if ev.Outcome != core.AuditOutcomeOK {
				t.Fatalf("repair outcome %q", ev.Outcome)
			}
			repairs++
		}
	}
	if drifts != 2 || repairs != 2 {
		t.Fatalf("audit trail has %d drift / %d repair events", drifts, repairs)
	}
	if v := w.reg.Counter(MetricDrift, telemetry.L("class", string(DriftExternalOverwrite))).Value(); v != 2 {
		t.Fatalf("drift counter = %d", v)
	}
	if v := w.reg.Counter(MetricRepairs, telemetry.L("class", string(DriftExternalOverwrite))).Value(); v != 2 {
		t.Fatalf("repair counter = %d", v)
	}

	// Follow-up pass: converged, no further repairs.
	res = w.rec.Reconcile()
	if !res.Converged || res.Repaired != 0 {
		t.Fatalf("expected convergence after repair, got %+v", res)
	}
}

func TestReconcileLostPlacement(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.applyGroup(t, "q1", 512, 11)

	w.kernel.kickMember(11)
	res := w.rec.Reconcile()
	if res.ByClass[DriftLostOnExec] != 1 || res.Repaired != 1 {
		t.Fatalf("expected 1 lost-on-exec repair, got %+v", res)
	}
	if got := w.kernel.memberOf(11); got != "q1" {
		t.Fatalf("thread not re-placed: %q", got)
	}
}

func TestReconcileCgroupDeleted(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.applyGroup(t, "q1", 512, 11)

	w.kernel.deleteGroup("q1")
	res := w.rec.Reconcile()
	if res.ByClass[DriftCgroupDeleted] == 0 {
		t.Fatalf("expected cgroup-deleted drift, got %+v", res)
	}
	if got, ok := w.kernel.sharesOf("q1"); !ok || got != 512 {
		t.Fatalf("group not recreated with shares: %d (exists=%v)", got, ok)
	}
	// The member re-enters the recreated group in the same pass.
	if got := w.kernel.memberOf(11); got != "q1" {
		t.Fatalf("member not restored into recreated group: %q", got)
	}
	res = w.rec.Reconcile()
	if !res.Converged {
		t.Fatalf("expected convergence after recreation, got %+v", res)
	}
}

func TestReconcileVanishedThreadIsForgotten(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.apply(t, 11, -5)
	w.applyGroup(t, "q1", 512, 11)

	before := w.state.Len()
	w.kernel.kill(11)
	res := w.rec.Reconcile()
	if res.ByClass[DriftVanishedEntity] == 0 || res.Forgotten == 0 {
		t.Fatalf("expected vanished-entity forget, got %+v", res)
	}
	if w.state.Len() != before-2 { // nice + placement entries dropped
		t.Fatalf("thread entries not forgotten: %d entries left (was %d)", w.state.Len(), before)
	}
	if _, ok := w.state.Nice(11); ok {
		t.Fatal("nice entry survived vanish")
	}
}

// TestReconcilePIDReuse is the satellite-1 behavior: a recycled TID with
// a different identity is vanished, never drift — the reconciler must not
// renice the unrelated new occupant.
func TestReconcilePIDReuse(t *testing.T) {
	w := newWorld(t, nil)
	w.kernel.spawn(11, 100)
	w.apply(t, 11, -5)

	// The thread dies and an unrelated process recycles TID 11.
	w.kernel.kill(11)
	w.kernel.spawn(11, 999) // different start-time identity
	w.kernel.interfereNice(11, 7)

	writesBefore := func() int {
		w.kernel.mu.Lock()
		defer w.kernel.mu.Unlock()
		return w.kernel.writes
	}()
	res := w.rec.Reconcile()
	if res.ByClass[DriftVanishedEntity] != 1 || res.ByClass[DriftExternalOverwrite] != 0 {
		t.Fatalf("PID reuse must classify as vanished, got %+v", res)
	}
	if _, ok := w.state.Nice(11); ok {
		t.Fatal("recycled TID entry not forgotten")
	}
	if got := w.kernel.niceOf(11); got != 7 {
		t.Fatalf("reconciler touched the recycled TID's nice: %d", got)
	}
	w.kernel.mu.Lock()
	writesAfter := w.kernel.writes
	w.kernel.mu.Unlock()
	if writesAfter != writesBefore {
		t.Fatalf("reconciler performed %d kernel writes on a recycled TID", writesAfter-writesBefore)
	}
}

func TestReconcileRepairBudget(t *testing.T) {
	w := newWorld(t, func(c *Config) { c.MaxRepairsPerPass = 2 })
	for tid := 1; tid <= 5; tid++ {
		w.kernel.spawn(tid, uint64(tid*100))
		w.apply(t, tid, -5)
	}
	for tid := 1; tid <= 5; tid++ {
		w.kernel.interfereNice(tid, 10)
	}

	res := w.rec.Reconcile()
	if res.Repaired != 2 || res.Deferred != 3 {
		t.Fatalf("budget 2: expected 2 repaired / 3 deferred, got %+v", res)
	}
	if res.Converged {
		t.Fatal("a deferring pass must not report convergence")
	}
	// Two more passes drain the backlog.
	res = w.rec.Reconcile()
	if res.Repaired != 2 || res.Deferred != 1 {
		t.Fatalf("pass 2: got %+v", res)
	}
	res = w.rec.Reconcile()
	if res.Repaired != 1 || res.Deferred != 0 {
		t.Fatalf("pass 3: got %+v", res)
	}
	res = w.rec.Reconcile()
	if !res.Converged {
		t.Fatalf("expected convergence after draining, got %+v", res)
	}
	if st := w.rec.Status(); st.Passes != 4 || st.TotalRepairs != 5 || !st.EverConverged {
		t.Fatalf("status %+v", st)
	}
}

func TestReconcileSharesTolerance(t *testing.T) {
	w := newWorld(t, func(c *Config) { c.SharesTolerance = 30 })
	w.kernel.spawn(11, 100)
	w.applyGroup(t, "q1", 512, 11)

	// Within tolerance (cgroup v2 weight quantization): not drift.
	w.kernel.interfereShares("q1", 512+27)
	res := w.rec.Reconcile()
	if res.Drifted != 0 {
		t.Fatalf("within-tolerance delta flagged as drift: %+v", res)
	}
	// Beyond tolerance: drift.
	w.kernel.interfereShares("q1", 512+31)
	res = w.rec.Reconcile()
	if res.ByClass[DriftExternalOverwrite] != 1 {
		t.Fatalf("beyond-tolerance delta not flagged: %+v", res)
	}
}
