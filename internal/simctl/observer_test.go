package simctl

import (
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/reconcile"
	"lachesis/internal/simos"
)

func spawnWorker(t *testing.T, k *simos.Kernel, name string) simos.ThreadID {
	t.Helper()
	tid, err := k.Spawn(name, simos.RootCgroup, simos.RunnerFunc(
		func(ctx *simos.RunContext, granted time.Duration) simos.Decision {
			return simos.Decision{Used: granted, Action: simos.ActionYield}
		}))
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestObserverReadsKernelTruth(t *testing.T) {
	k := simos.New(simos.Config{CPUs: 1})
	tid := spawnWorker(t, k, "w")
	a, err := NewOSAdapter(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetNice(int(tid), -7); err != nil {
		t.Fatal(err)
	}
	if err := a.EnsureCgroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetShares("g", 2048); err != nil {
		t.Fatal(err)
	}
	if err := a.MoveThread(int(tid), "g"); err != nil {
		t.Fatal(err)
	}

	if n, err := a.ObserveNice(int(tid)); err != nil || n != -7 {
		t.Fatalf("ObserveNice = %d, %v", n, err)
	}
	if s, err := a.ObserveShares("g"); err != nil || s != 2048 {
		t.Fatalf("ObserveShares = %d, %v", s, err)
	}
	if in, err := a.InCgroup(int(tid), "g"); err != nil || !in {
		t.Fatalf("InCgroup = %v, %v", in, err)
	}
	if id, err := a.ThreadIdentity(int(tid)); err != nil || id != uint64(tid) {
		t.Fatalf("ThreadIdentity = %d, %v", id, err)
	}

	// The observer sees through the adapter's caches: a direct kernel
	// renice (external interference) is visible even though the cache
	// still holds -7.
	if err := k.SetNice(tid, 5); err != nil {
		t.Fatal(err)
	}
	if n, _ := a.ObserveNice(int(tid)); n != 5 {
		t.Fatalf("observer returned cached value %d, want kernel truth 5", n)
	}

	// Dead threads observe as vanished, not as zero values.
	if err := k.KillThread(tid); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveNice(int(tid)); !core.IsVanished(err) {
		t.Fatalf("ObserveNice on dead thread: %v", err)
	}
	if _, err := a.ThreadIdentity(int(tid)); !core.IsVanished(err) {
		t.Fatalf("ThreadIdentity on dead thread: %v", err)
	}
	if _, err := a.InCgroup(int(tid), "g"); !core.IsVanished(err) {
		t.Fatalf("InCgroup on dead thread: %v", err)
	}
	if _, err := a.ObserveShares("never-created"); !core.IsVanished(err) {
		t.Fatalf("ObserveShares on unknown group: %v", err)
	}
}

// TestInvalidationDefeatsStaleCaches is the drift-repair enabling
// property: after external interference the adapter cache swallows
// same-value re-applies, and invalidation forces the next apply through
// to the kernel.
func TestInvalidationDefeatsStaleCaches(t *testing.T) {
	k := simos.New(simos.Config{CPUs: 1})
	tid := spawnWorker(t, k, "w")
	a, err := NewOSAdapter(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetNice(int(tid), -7); err != nil {
		t.Fatal(err)
	}
	// Interference, then a cached re-apply: the kernel keeps the
	// interfered value — this is exactly why fire-and-forget drifts.
	if err := k.SetNice(tid, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.SetNice(int(tid), -7); err != nil {
		t.Fatal(err)
	}
	if n, _ := k.Nice(tid); n != 10 {
		t.Fatalf("expected cache to absorb the re-apply, kernel nice = %d", n)
	}
	a.InvalidateThread(int(tid))
	if err := a.SetNice(int(tid), -7); err != nil {
		t.Fatal(err)
	}
	if n, _ := k.Nice(tid); n != -7 {
		t.Fatalf("post-invalidation re-apply did not land: %d", n)
	}
}

// TestInvalidationRecoversDeletedCgroup: external group teardown, then
// invalidate + EnsureCgroup + SetShares + MoveThread recreates and
// repopulates it — the reconciler's cgroup-deleted repair sequence.
func TestInvalidationRecoversDeletedCgroup(t *testing.T) {
	k := simos.New(simos.Config{CPUs: 1})
	tid := spawnWorker(t, k, "w")
	a, err := NewOSAdapter(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnsureCgroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetShares("g", 2048); err != nil {
		t.Fatal(err)
	}
	if err := a.MoveThread(int(tid), "g"); err != nil {
		t.Fatal(err)
	}
	// External teardown: the agent kicks the member back to the root and
	// deletes the group (cgroups must be empty to rmdir, as on Linux).
	id, _ := a.Cgroup("g")
	if err := k.MoveThread(tid, simos.RootCgroup); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveCgroup(id); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ObserveShares("g"); !core.IsVanished(err) {
		t.Fatalf("deleted group should observe vanished, got %v", err)
	}

	a.InvalidateCgroup("g")
	if err := a.EnsureCgroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetShares("g", 2048); err != nil {
		t.Fatal(err)
	}
	if err := a.MoveThread(int(tid), "g"); err != nil {
		t.Fatal(err)
	}
	if s, err := a.ObserveShares("g"); err != nil || s != 2048 {
		t.Fatalf("recreated group shares = %d, %v", s, err)
	}
	if in, err := a.InCgroup(int(tid), "g"); err != nil || !in {
		t.Fatalf("thread not back in recreated group: %v, %v", in, err)
	}
}

// TestReconcilerRunnerHealsInterference wires the full simulated stack:
// middleware-managed threads, an interference agent scribbling over
// their nice values, and a ReconcilerRunner thread healing them — all as
// simulated threads at virtual times.
func TestReconcilerRunnerHealsInterference(t *testing.T) {
	k := simos.New(simos.Config{CPUs: 2})
	a, err := NewOSAdapter(k)
	if err != nil {
		t.Fatal(err)
	}
	state, err := reconcile.NewDesiredState(nil)
	if err != nil {
		t.Fatal(err)
	}
	ident := func(tid int) uint64 {
		id, err := a.ThreadIdentity(tid)
		if err != nil {
			return 0
		}
		return id
	}
	gated := core.NewDriverGate().ExclusiveOS(reconcile.RecordOS(a, state, ident, nil))

	tids := make([]simos.ThreadID, 4)
	for i := range tids {
		tids[i] = spawnWorker(t, k, "w")
		if err := gated.SetNice(int(tids[i]), -5); err != nil {
			t.Fatal(err)
		}
	}

	rec := reconcile.New(reconcile.Config{
		OS: gated, Observer: a, State: state,
		Now: k.Now,
	})
	runner, err := StartReconciler(k, rec, 200*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Interference agent: every 150ms, renice one managed thread.
	var events []ChaosEvent
	for i := 0; i < 10; i++ {
		tid := tids[i%len(tids)]
		events = append(events, ChaosEvent{
			At:   time.Duration(i+1) * 150 * time.Millisecond,
			Name: "renice",
			Do:   func() error { return k.SetNice(tid, 15) },
		})
	}
	if _, err := StartChaosAgent(k, events); err != nil {
		t.Fatal(err)
	}

	// Run well past the last interference plus two reconcile intervals.
	k.RunUntil(3 * time.Second)
	if runner.Passes < 5 {
		t.Fatalf("reconciler barely ran: %d passes", runner.Passes)
	}
	for _, tid := range tids {
		if n, err := k.Nice(simos.ThreadID(tid)); err != nil || n != -5 {
			t.Fatalf("tid %d not healed: nice=%d err=%v", tid, n, err)
		}
	}
	if st := rec.Status(); st.TotalRepairs == 0 || !st.EverConverged {
		t.Fatalf("reconciler status: %+v", st)
	}
}
