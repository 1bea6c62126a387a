package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// switchDriver is a fakeDriver whose metrics endpoint can be taken down and
// brought back at will, modeling a sustained SPE outage.
type switchDriver struct {
	fakeDriver
	down  bool
	calls int
}

func (d *switchDriver) Fetch(metric string, now time.Duration) (EntityValues, error) {
	d.calls++
	if d.down {
		return nil, errors.New("connection refused")
	}
	return d.fakeDriver.Fetch(metric, now)
}

func upDriver(name string, tidBase int) *switchDriver {
	return &switchDriver{fakeDriver: fakeDriver{
		name:     name,
		provided: map[string]EntityValues{MetricQueueSize: {"a": 5, "b": 1}},
		entities: []Entity{
			{Name: "a", Driver: name, Query: "q", Thread: tidBase},
			{Name: "b", Driver: name, Query: "q", Thread: tidBase + 1},
		},
	}}
}

// TestStepAdvancesTickerOnFailure is the regression test for the ticker
// stall: a failed cycle must still move stats.Next into the future, or
// callers honoring it busy-loop.
func TestStepAdvancesTickerOnFailure(t *testing.T) {
	for _, mode := range []struct {
		name string
		res  Resilience
	}{
		{"strict", Resilience{Disabled: true}},
		// High threshold: keep the breaker closed so every step fails.
		{"resilient", Resilience{FailureThreshold: 100}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := upDriver("dead", 1)
			d.down = true
			mw := NewMiddleware(nil)
			mw.SetResilience(mode.res)
			if err := mw.Bind(Binding{
				Policy:     NewQSPolicy(),
				Translator: NewNiceTranslator(newFakeOS()),
				Drivers:    []Driver{d},
				Period:     time.Second,
			}); err != nil {
				t.Fatal(err)
			}
			now := 0 * time.Second
			for i := 0; i < 5; i++ {
				stats, err := mw.Step(now)
				if err == nil {
					t.Fatalf("step %d: dead driver should surface an error", i)
				}
				if stats.Next <= now {
					t.Fatalf("step %d: Next = %v not after now = %v (ticker stalled)", i, stats.Next, now)
				}
				now = stats.Next
			}
		})
	}
}

// TestPartialDriverQuarantine: one driver's outage must quarantine only the
// binding that depends on it; bindings on healthy drivers keep running
// every period.
func TestPartialDriverQuarantine(t *testing.T) {
	bad := upDriver("bad", 1)
	bad.down = true
	good := upDriver("good", 11)
	os := newFakeOS()
	mw := NewMiddleware(nil)
	// High threshold: the failing binding keeps surfacing errors rather
	// than going quiet in quarantine (the breaker has its own test).
	mw.SetResilience(Resilience{FailureThreshold: 100})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{bad}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(os),
		Drivers: []Driver{good}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stats, err := mw.Step(time.Duration(i) * time.Second)
		if err == nil {
			t.Fatalf("step %d: bad driver should surface an error", i)
		}
		if stats.PoliciesRun != 1 {
			t.Fatalf("step %d: policies run = %d, want 1 (healthy binding only)", i, stats.PoliciesRun)
		}
	}
	if mw.PolicyRuns() != 5 {
		t.Errorf("healthy binding ran %d times, want 5", mw.PolicyRuns())
	}
	if len(os.nices) == 0 {
		t.Error("healthy binding applied no schedules")
	}
	h := mw.Health()
	if h.Healthy() {
		t.Error("health should not report all-clear during an outage")
	}
	for _, dh := range h.Drivers {
		switch dh.Driver {
		case "bad":
			if dh.ConsecutiveFailures == 0 {
				t.Error("bad driver should show consecutive failures")
			}
		case "good":
			if dh.ConsecutiveFailures != 0 || !dh.HasSucceeded {
				t.Errorf("good driver health = %+v", dh)
			}
		}
	}
	for _, bh := range h.Bindings {
		if bh.HasSucceeded && bh.State != BindingHealthy {
			t.Errorf("healthy binding state = %v", bh.State)
		}
		if !bh.HasSucceeded && bh.State == BindingHealthy {
			t.Error("never-succeeded binding reported healthy")
		}
	}
}

// TestLastGoodFallback: a failed fetch within the staleness bound serves
// the last good values so the binding still runs; past the bound the
// binding fails.
func TestLastGoodFallback(t *testing.T) {
	d := upDriver("spiky", 1)
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{FailureThreshold: 100, StalenessBound: 2 * time.Second})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Step(0); err != nil {
		t.Fatal(err)
	}
	d.down = true
	// t=1s, 2s: within the 2s bound — stale values keep the binding running.
	for _, now := range []time.Duration{time.Second, 2 * time.Second} {
		stats, err := mw.Step(now)
		if err == nil {
			t.Fatalf("t=%v: failed fetch should still surface an error", now)
		}
		if stats.PoliciesRun != 1 {
			t.Fatalf("t=%v: policies run = %d, want 1 (stale fallback)", now, stats.PoliciesRun)
		}
		h := mw.Health()
		if !h.Drivers[0].ServingStale {
			t.Fatalf("t=%v: driver should be marked as serving stale values", now)
		}
	}
	// t=3s: bound exceeded — the binding cannot run.
	stats, err := mw.Step(3 * time.Second)
	if err == nil {
		t.Fatal("t=3s: expired fallback should fail")
	}
	if stats.PoliciesRun != 0 {
		t.Fatalf("t=3s: policies run = %d, want 0 (fallback expired)", stats.PoliciesRun)
	}
	h := mw.Health()
	if h.Drivers[0].ServingStale {
		t.Error("expired fallback should clear ServingStale")
	}
	if h.Bindings[0].State != BindingDegraded {
		t.Errorf("binding state = %v, want degraded", h.Bindings[0].State)
	}
	// Recovery: the driver comes back, the binding is healthy again.
	d.down = false
	if _, err := mw.Step(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h := mw.Health(); !h.Healthy() {
		t.Errorf("after recovery, health = %+v", h)
	}
}

// TestCircuitBreakerLifecycle walks the full breaker arc: consecutive
// failures open it, quarantine suppresses runs (and driver scrapes),
// half-open probes double the backoff on failure, and a successful probe
// closes it.
func TestCircuitBreakerLifecycle(t *testing.T) {
	d := upDriver("outage", 1)
	d.down = true // down from the start: no last-good values to fall back on
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{FailureThreshold: 3})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }

	// t=0,1,2: three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := mw.Step(sec(i)); err == nil {
			t.Fatalf("t=%ds: want error", i)
		}
	}
	h := mw.Health()
	if h.Bindings[0].State != BindingQuarantined {
		t.Fatalf("after 3 failures state = %v, want quarantined", h.Bindings[0].State)
	}
	if got := h.Bindings[0].OpenUntil; got != sec(3) {
		t.Fatalf("first backoff: OpenUntil = %v, want 3s (base = period)", got)
	}
	if h.Bindings[0].ConsecutiveFailures != 3 {
		t.Errorf("consecutive failures = %d, want 3", h.Bindings[0].ConsecutiveFailures)
	}

	// t=3: half-open probe fails; backoff doubles to 2s (open until 5s).
	if _, err := mw.Step(sec(3)); err == nil {
		t.Fatal("t=3s: failed probe should surface an error")
	}
	if got := mw.Health().Bindings[0].OpenUntil; got != sec(5) {
		t.Fatalf("second backoff: OpenUntil = %v, want 5s", got)
	}

	// t=4: quarantined — no run, and the driver is not scraped.
	before := d.calls
	stats, err := mw.Step(sec(4))
	if err != nil {
		t.Fatalf("t=4s: quarantined step should be quiet, got %v", err)
	}
	if stats.Quarantined != 1 || stats.PoliciesRun != 0 {
		t.Fatalf("t=4s: stats = %+v, want 1 quarantined, 0 run", stats)
	}
	if d.calls != before {
		t.Error("quarantined binding's driver was still scraped")
	}

	// t=5: probe fails again; backoff doubles to 4s (open until 9s).
	if _, err := mw.Step(sec(5)); err == nil {
		t.Fatal("t=5s: failed probe should surface an error")
	}
	if got := mw.Health().Bindings[0].OpenUntil; got != sec(9) {
		t.Fatalf("third backoff: OpenUntil = %v, want 9s", got)
	}

	// t=9: the outage ends and the probe succeeds: breaker closes.
	d.down = false
	for _, now := range []time.Duration{sec(6), sec(7), sec(8)} {
		if _, err := mw.Step(now); err != nil {
			t.Fatalf("t=%v: quarantined step errored: %v", now, err)
		}
	}
	if _, err := mw.Step(sec(9)); err != nil {
		t.Fatalf("t=9s: successful probe errored: %v", err)
	}
	h = mw.Health()
	if h.Bindings[0].State != BindingHealthy {
		t.Fatalf("after recovery state = %v, want healthy", h.Bindings[0].State)
	}
	if !h.Healthy() {
		t.Errorf("after recovery, health = %+v", h)
	}
	if h.Bindings[0].LastSuccess != sec(9) {
		t.Errorf("last success = %v, want 9s", h.Bindings[0].LastSuccess)
	}
	if mw.PolicyRuns() != 1 {
		t.Errorf("policy runs = %d, want 1", mw.PolicyRuns())
	}
}

// panickyPolicy panics on a configurable schedule.
type panickyPolicy struct{ always bool }

func (panickyPolicy) Name() string      { return "panicky" }
func (panickyPolicy) Metrics() []string { return []string{MetricQueueSize} }
func (p panickyPolicy) Schedule(*View) (Schedule, error) {
	panic("user policy bug")
}

// panickyTranslator panics on Apply.
type panickyTranslator struct{}

func (panickyTranslator) Name() string { return "panicky" }
func (panickyTranslator) Apply(Schedule, map[string]Entity) error {
	panic("translator bug")
}

// TestPanicIsolation: a panicking user policy or translator becomes a step
// error, never a crashed loop, and other bindings still run.
func TestPanicIsolation(t *testing.T) {
	d := upDriver("ok", 1)
	os := newFakeOS()
	mw := NewMiddleware(nil)
	if err := mw.Bind(Binding{
		Policy: panickyPolicy{}, Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: panickyTranslator{},
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(os),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := mw.Step(0)
	if err == nil {
		t.Fatal("panicking bindings should surface errors")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error should mention the panic: %v", err)
	}
	if mw.PanicsRecovered() != 2 {
		t.Errorf("panics recovered = %d, want 2", mw.PanicsRecovered())
	}
	if stats.PoliciesRun != 3 {
		t.Errorf("policies run = %d, want 3", stats.PoliciesRun)
	}
	if len(os.nices) == 0 {
		t.Error("healthy binding should still apply")
	}
}

// TestDegradedResetRestoresDefaults: with DegradedReset, opening the
// breaker hands the binding's entities back to default scheduling (nice 0)
// through the translator's Resetter capability.
func TestDegradedResetRestoresDefaults(t *testing.T) {
	d := upDriver("outage", 1)
	os := newFakeOS()
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{
		FailureThreshold: 2,
		StalenessBound:   time.Nanosecond, // expire the fallback immediately
		Degraded:         DegradedReset,
	})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(os),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Step(0); err != nil {
		t.Fatal(err)
	}
	if os.nices[1] == 0 && os.nices[2] == 0 {
		t.Fatal("initial schedule should set non-default nice values")
	}
	d.down = true
	for _, now := range []time.Duration{time.Second, 2 * time.Second} {
		if _, err := mw.Step(now); err == nil {
			t.Fatalf("t=%v: want error", now)
		}
	}
	if mw.Health().Bindings[0].State != BindingQuarantined {
		t.Fatal("breaker should be open")
	}
	if os.nices[1] != 0 || os.nices[2] != 0 {
		t.Errorf("nices after reset = %v, want 0 for tids 1,2", os.nices)
	}
}

// refusableNice is a nice translator whose Apply can be made to fail while
// its Reset keeps working.
type refusableNice struct {
	*NiceTranslator
	refuse bool
}

func (t *refusableNice) Apply(s Schedule, ents map[string]Entity) error {
	if t.refuse {
		return errors.New("apply refused")
	}
	return t.NiceTranslator.Apply(s, ents)
}

// TestDegradedResetUsesLastSuccessfulEntities: a successful run hands its
// entity map over as lastEntities by swap, and the map it displaces becomes
// the next run's scratch. Failed runs — which build their view over a
// changed entity set here — must leave lastEntities alone, so the reset
// when the breaker opens covers exactly the entities of the last
// successful run.
func TestDegradedResetUsesLastSuccessfulEntities(t *testing.T) {
	d := upDriver("eng", 1)
	os := newFakeOS()
	tr := &refusableNice{NiceTranslator: NewNiceTranslator(os)}
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{FailureThreshold: 2, Degraded: DegradedReset})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: tr, Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// Two successes, so both maps of the swap have been lastEntities once.
	for _, now := range []time.Duration{0, time.Second} {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	// The SPE replaces operator b (tid 2) by c (tid 3) and applies start
	// failing: the failing runs see {a, c}, which was never scheduled.
	d.entities[1] = Entity{Name: "c", Driver: "eng", Query: "q", Thread: 3}
	d.provided[MetricQueueSize] = EntityValues{"a": 5, "c": 1}
	os.nices[3] = 7
	tr.refuse = true
	for _, now := range []time.Duration{2 * time.Second, 3 * time.Second} {
		if _, err := mw.Step(now); err == nil {
			t.Fatalf("t=%v: want the translator error", now)
		}
	}
	if mw.Health().Bindings[0].State != BindingQuarantined {
		t.Fatal("breaker should be open")
	}
	if os.nices[1] != 0 || os.nices[2] != 0 || os.nices[3] != 7 {
		t.Errorf("nices after reset = %v, want tids 1 and 2 (the last successful run) at 0 and tid 3 untouched", os.nices)
	}
}

// TestNiceTranslatorSkipsVanished: a thread that exits between listing and
// setpriority (ESRCH) is a benign skip, not an error.
func TestNiceTranslatorSkipsVanished(t *testing.T) {
	os := newFakeOS()
	os.failOn = map[string]error{"SetNice": fmt.Errorf("setpriority: %w", ErrEntityVanished)}
	tr := NewNiceTranslator(os)
	sched := Schedule{Scale: ScaleLinear, Single: map[string]float64{"hot": 100, "cold": 0}}
	if err := tr.Apply(sched, threadedEntities()); err != nil {
		t.Errorf("vanished threads should be skipped, got %v", err)
	}
}

// resetFakeOS extends fakeOS with the optional Reset capabilities.
type resetFakeOS struct {
	*fakeOS
	removed  []string
	restored []int
}

func (f *resetFakeOS) RemoveCgroup(name string) error {
	delete(f.cgroups, name)
	f.removed = append(f.removed, name)
	return nil
}

func (f *resetFakeOS) RestoreThread(tid int) error {
	delete(f.placed, tid)
	f.restored = append(f.restored, tid)
	return nil
}

// TestTranslatorReset: Reset undoes what Apply did — nice back to 0,
// threads back to their original placement, created cgroups removed.
func TestTranslatorReset(t *testing.T) {
	os := &resetFakeOS{fakeOS: newFakeOS()}
	tr := NewCombinedTranslator(os, 0, 0)
	sched := Schedule{
		Scale:  ScaleLinear,
		Single: map[string]float64{"hot": 100, "warm": 50, "cold": 0},
		Groups: map[string]Group{
			"q1": {Priority: 80, Ops: []string{"hot", "warm"}},
			"q2": {Priority: 20, Ops: []string{"cold"}},
		},
	}
	entities := threadedEntities()
	if err := tr.Apply(sched, entities); err != nil {
		t.Fatal(err)
	}
	if len(os.cgroups) != 2 || len(os.placed) != 3 {
		t.Fatalf("apply state: cgroups=%v placed=%v", os.cgroups, os.placed)
	}
	if err := tr.Reset(entities); err != nil {
		t.Fatal(err)
	}
	for tid, nice := range os.nices {
		if nice != 0 {
			t.Errorf("tid %d nice = %d after reset, want 0", tid, nice)
		}
	}
	if len(os.placed) != 0 {
		t.Errorf("threads still placed after reset: %v", os.placed)
	}
	if len(os.cgroups) != 0 {
		t.Errorf("cgroups still present after reset: %v", os.cgroups)
	}
	if len(os.removed) != 2 {
		t.Errorf("removed %v, want both groups", os.removed)
	}
}
