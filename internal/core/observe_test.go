package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// fakeClock returns a nowFn advancing 1ms per call, making wall-clock
// phase measurements deterministic in tests.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestStepStatsBreakdown: a successful step reports per-driver fetch and
// per-binding schedule/apply durations, and the phase histograms see the
// same observations.
func TestStepStatsBreakdown(t *testing.T) {
	d := upDriver("eng", 1)
	mw := NewMiddleware(nil)
	mw.nowFn = fakeClock()
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := mw.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Drivers) != 1 {
		t.Fatalf("driver breakdown entries = %d, want 1", len(stats.Drivers))
	}
	dst := stats.Drivers[0]
	if dst.Driver != "eng" || dst.Fetch <= 0 || dst.Stale || dst.Err != "" {
		t.Errorf("driver breakdown = %+v", dst)
	}
	if len(stats.Bindings) != 1 {
		t.Fatalf("binding breakdown entries = %d, want 1", len(stats.Bindings))
	}
	bst := stats.Bindings[0]
	if bst.Policy != "qs" || bst.Translator != "nice" || bst.Entities != 2 {
		t.Errorf("binding breakdown = %+v", bst)
	}
	if bst.Schedule <= 0 || bst.Apply <= 0 {
		t.Errorf("phase durations not measured: %+v", bst)
	}
	if stats.Wall < bst.Schedule+bst.Apply+dst.Fetch {
		t.Errorf("Wall = %v < sum of phases (%v + %v + %v)", stats.Wall, bst.Schedule, bst.Apply, dst.Fetch)
	}
	tel := mw.Telemetry()
	if got := tel.Histogram(MetricStepSeconds).Count(); got != 1 {
		t.Errorf("step histogram count = %d, want 1", got)
	}
	l := telemetry.L("binding", "qs/nice")
	if got := tel.Histogram(MetricScheduleSeconds, l).Count(); got != 1 {
		t.Errorf("schedule histogram count = %d, want 1", got)
	}
	if got := tel.Histogram(MetricApplySeconds, l).Count(); got != 1 {
		t.Errorf("apply histogram count = %d, want 1", got)
	}
	if got := tel.Histogram(MetricFetchSeconds, telemetry.L("driver", "eng")).Count(); got != 1 {
		t.Errorf("fetch histogram count = %d, want 1", got)
	}
}

// TestHealthMixedStates drives three bindings into three different states
// at the same instant — quarantined (open breaker), degraded (recent
// failures, breaker closed), healthy — and cross-checks the Health
// snapshot against the breaker-transition and quarantine counters.
func TestHealthMixedStates(t *testing.T) {
	dA := upDriver("down-a", 1)
	dA.down = true // binding A fails from the start
	dB := upDriver("ok-b", 11)
	dC := upDriver("ok-c", 21)
	osB := newFakeOS()
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{
		FailureThreshold: 3,
		BaseBackoff:      10 * time.Second, // keep A quarantined through the test
		StalenessBound:   time.Nanosecond,  // no fallback: A's fetch failures fail the binding
	})
	for _, b := range []Binding{
		{Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()), Drivers: []Driver{dA}, Period: time.Second},
		{Policy: NewQSPolicy(), Translator: NewNiceTranslator(osB), Drivers: []Driver{dB}, Period: time.Second},
		{Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()), Drivers: []Driver{dC}, Period: time.Second},
	} {
		if err := mw.Bind(b); err != nil {
			t.Fatal(err)
		}
	}

	// t=0,1: A accumulates failures; B and C run fine.
	for _, now := range []time.Duration{0, time.Second} {
		if _, err := mw.Step(now); err == nil {
			t.Fatalf("t=%v: A's dead driver should surface an error", now)
		}
	}
	// t=2: A's third failure opens its breaker; B's translator starts
	// failing (first failure: degraded, breaker still closed); C stays
	// healthy.
	osB.failOn = map[string]error{"SetNice": errors.New("eperm")}
	if _, err := mw.Step(2 * time.Second); err == nil {
		t.Fatal("t=2s: failures should surface")
	}

	h := mw.Health()
	if len(h.Bindings) != 3 {
		t.Fatalf("bindings in health = %d, want 3", len(h.Bindings))
	}
	a, b, c := h.Bindings[0], h.Bindings[1], h.Bindings[2]
	if a.State != BindingQuarantined || a.OpenUntil != 12*time.Second || a.ConsecutiveFailures != 3 {
		t.Errorf("binding A = %+v, want quarantined until 12s after 3 failures", a)
	}
	if b.State != BindingDegraded || b.ConsecutiveFailures != 1 || !strings.Contains(b.LastError, "eperm") {
		t.Errorf("binding B = %+v, want degraded with 1 failure", b)
	}
	if c.State != BindingHealthy || !c.HasSucceeded || c.LastSuccess != 2*time.Second || c.LastError != "" {
		t.Errorf("binding C = %+v, want healthy", c)
	}
	if h.Healthy() {
		t.Error("mixed-state health must not report all-clear")
	}

	// t=3: A is skipped in quarantine (and its driver not scraped); B
	// recovers.
	osB.failOn = nil
	callsBefore := dA.calls
	stats, err := mw.Step(3 * time.Second)
	if err != nil {
		t.Fatalf("t=3s: %v", err)
	}
	if stats.Quarantined != 1 {
		t.Errorf("t=3s quarantined = %d, want 1 (binding A)", stats.Quarantined)
	}
	if dA.calls != callsBefore {
		t.Error("quarantined binding A's driver was scraped")
	}
	h = mw.Health()
	if h.Bindings[0].State != BindingQuarantined || h.Bindings[1].State != BindingHealthy {
		t.Errorf("t=3s states = %v/%v, want quarantined/healthy", h.Bindings[0].State, h.Bindings[1].State)
	}

	// The telemetry counters agree with the walked lifecycle. The three
	// bindings share a policy/translator pair, so their labels are
	// disambiguated with #N suffixes; A (bound first) owns the base label.
	tel := mw.Telemetry()
	lA := telemetry.L("binding", "qs/nice")
	if got := tel.Counter(MetricBreakerTransitions, lA, telemetry.L("to", "open")).Value(); got != 1 {
		t.Errorf("open transitions for A = %d, want 1", got)
	}
	if got := tel.Counter(MetricQuarantinedTotal, lA).Value(); got != 1 {
		t.Errorf("quarantined skips for A = %d, want 1", got)
	}
	if got := tel.Counter(MetricFetchFailuresTotal, telemetry.L("driver", "down-a")).Value(); got != 3 {
		t.Errorf("fetch failures for down-a = %d, want 3", got)
	}
	if got := tel.Histogram(MetricScheduleSeconds, telemetry.L("binding", "qs/nice#2")).Count(); got != 4 {
		t.Errorf("B's schedule observations = %d, want 4 (labels disambiguated per binding)", got)
	}
}

// TestCountersBackAccessors: the legacy accessors and the telemetry
// counters are the same storage, so induced errors and panics show
// identical numbers through both surfaces.
func TestCountersBackAccessors(t *testing.T) {
	d := upDriver("eng", 1)
	mw := NewMiddleware(nil)
	mw.SetResilience(Resilience{FailureThreshold: 100}) // keep the panicky binding running
	if err := mw.Bind(Binding{
		Policy: panickyPolicy{}, Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := mw.Step(time.Duration(i) * time.Second); err == nil {
			t.Fatalf("step %d: panicking policy should surface an error", i)
		}
	}
	tel := mw.Telemetry()
	if got := tel.Counter(MetricStepsTotal).Value(); got != 2 {
		t.Errorf("steps counter = %d, want 2", got)
	}
	checks := []struct {
		name     string
		accessor int64
		counter  string
		want     int64
	}{
		{"PolicyRuns", mw.PolicyRuns(), MetricPolicyRunsTotal, 2},
		{"ApplyErrors", mw.ApplyErrors(), MetricApplyErrorsTotal, 2},
		{"PanicsRecovered", mw.PanicsRecovered(), MetricPanicsTotal, 2},
	}
	for _, c := range checks {
		if got := tel.Counter(c.counter).Value(); got != c.want {
			t.Errorf("%s counter = %d, want %d", c.counter, got, c.want)
		}
		if c.accessor != c.want {
			t.Errorf("%s() = %d, want %d", c.name, c.accessor, c.want)
		}
	}
}

// TestSetTelemetryMigratesValues: swapping in a new registry keeps the
// lifetime accessors continuous.
func TestSetTelemetryMigratesValues(t *testing.T) {
	d := upDriver("eng", 1)
	mw := NewMiddleware(nil)
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := mw.Step(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if mw.PolicyRuns() != 3 {
		t.Fatalf("policy runs before swap = %d, want 3", mw.PolicyRuns())
	}
	shared := telemetry.NewRegistry()
	mw.SetTelemetry(shared)
	if mw.Telemetry() != shared {
		t.Fatal("registry not swapped")
	}
	if mw.PolicyRuns() != 3 {
		t.Errorf("policy runs after swap = %d, want 3 (value migrated)", mw.PolicyRuns())
	}
	if got := shared.Counter(MetricPolicyRunsTotal).Value(); got != 3 {
		t.Errorf("shared registry counter = %d, want 3", got)
	}
	if _, err := mw.Step(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := shared.Counter(MetricPolicyRunsTotal).Value(); got != 4 {
		t.Errorf("shared registry counter after step = %d, want 4", got)
	}
}

// TestConcurrentStepsSharedRegistry hammers one registry from several
// middlewares stepping concurrently plus a Prometheus exporter (run under
// -race in CI).
func TestConcurrentStepsSharedRegistry(t *testing.T) {
	shared := telemetry.NewRegistry()
	const loops, steps = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < loops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := upDriver(fmt.Sprintf("eng%d", i), 10*i+1)
			mw := NewMiddleware(nil)
			mw.SetTelemetry(shared)
			mw.SetAudit(NewAuditTrail(64, nil))
			if err := mw.Bind(Binding{
				Policy: NewQSPolicy(), Translator: NewNiceTranslator(AuditOS(newFakeOS(), mw.Audit())),
				Drivers: []Driver{d}, Period: time.Second,
			}); err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < steps; s++ {
				if _, err := mw.Step(time.Duration(s) * time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := shared.WritePrometheus(&bytes.Buffer{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := shared.Counter(MetricStepsTotal).Value(); got != loops*steps {
		t.Fatalf("steps counter = %d, want %d (lost updates)", got, loops*steps)
	}
	if got := shared.Counter(MetricPolicyRunsTotal).Value(); got != loops*steps {
		t.Fatalf("policy runs counter = %d, want %d", got, loops*steps)
	}
	if got := shared.Histogram(MetricStepSeconds).Count(); got != loops*steps {
		t.Fatalf("step histogram count = %d, want %d", got, loops*steps)
	}
}

// clockBinding binds one QS binding whose write chain has a guard and a
// coalescer, so every phase of runBinding executes.
func clockBinding(t *testing.T, mw *Middleware) {
	t.Helper()
	co := NewCoalescer(newFakeOS(), nil)
	g := &bufferGuard{inner: co}
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(g),
		Drivers: []Driver{upDriver("eng", 1)}, Period: time.Second,
		Coalescer: co, Guard: g,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHealthyBindingClockReads pins the clock budget of the decision path:
// with no recorder attached a healthy binding reads the clock three times
// (start, schedule end, after the flush) beside the two reads around each
// fetch and the two around the Step.
func TestHealthyBindingClockReads(t *testing.T) {
	mw := NewMiddleware(nil)
	reads := 0
	clock := fakeClock()
	mw.nowFn = func() time.Time { reads++; return clock() }
	clockBinding(t, mw)
	for i := 0; i < 3; i++ {
		reads = 0
		stats, err := mw.Step(time.Duration(i) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		const step, fetch, binding = 2, 2, 3
		if reads != step+fetch+binding {
			t.Errorf("cycle %d read the clock %d times, want %d", i, reads, step+fetch+binding)
		}
		// One fake millisecond per read: the schedule spans b0..t1, the apply
		// t1..end with nothing read in between.
		if bst := stats.Bindings[0]; bst.Schedule != time.Millisecond || bst.Apply != time.Millisecond {
			t.Errorf("cycle %d: schedule %v apply %v, want 1ms each", i, bst.Schedule, bst.Apply)
		}
	}
}

// TestRecorderStillSeesEveryPhase: the phase boundaries a healthy binding
// no longer reads are still read for a recorder — at floor 0 every phase
// emits a span with a measured duration.
func TestRecorderStillSeesEveryPhase(t *testing.T) {
	mw := NewMiddleware(nil)
	mw.nowFn = fakeClock()
	clockBinding(t, mw)
	rec := span.New(span.Config{Process: "test", Seed: 3})
	mw.SetSpans(rec)
	stats, err := mw.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	walls := map[string]time.Duration{}
	for _, sp := range rec.Snapshot() {
		walls[sp.Name] = sp.Wall
	}
	for _, name := range []string{"schedule", "apply", "guard", "flush", "binding"} {
		if walls[name] <= 0 {
			t.Errorf("span %q: wall %v, want a measured duration (spans: %v)", name, walls[name], walls)
		}
	}
	// BindingStepStats.Apply keeps covering translate + guard + flush.
	if bst := stats.Bindings[0]; bst.Apply < walls["apply"]+walls["guard"]+walls["flush"] {
		t.Errorf("Apply = %v < apply %v + guard %v + flush %v", bst.Apply, walls["apply"], walls["guard"], walls["flush"])
	}
}
