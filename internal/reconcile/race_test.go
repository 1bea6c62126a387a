package reconcile

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
)

// raceDriver exposes fixed entities; it provides no metrics.
type raceDriver struct{ ents []core.Entity }

func (d *raceDriver) Name() string            { return "race" }
func (d *raceDriver) Entities() []core.Entity { return d.ents }
func (d *raceDriver) Provides(string) bool    { return false }
func (d *raceDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	return nil, &core.UnknownMetricError{Metric: metric, Driver: "race"}
}

// TestMiddlewareReconcilerRace is the satellite-2 scenario under the race
// detector: the middleware's step loop (whose breaker half-open probes
// re-apply through the translator) runs concurrently with reconcile
// passes repairing the same entities, both writing through one shared
// DriverGate.ExclusiveOS chain, while an interference goroutine scribbles over kernel
// state. Run with -race; correctness check: once interference stops, one
// final pass converges kernel state onto desired state.
func TestMiddlewareReconcilerRace(t *testing.T) {
	runMiddlewareReconcilerRace(t, nil)
}

// TestMiddlewareReconcilerRaceQueued is the same scenario with the
// backend fronted by a submission queue: concurrent binding applies and
// reconciler repairs must funnel through the queue's single writer
// goroutine without deadlock or lost writes, and cache invalidations
// (which bypass the queue by design) must stay race-free against it.
func TestMiddlewareReconcilerRaceQueued(t *testing.T) {
	runMiddlewareReconcilerRace(t, func(os core.OSInterface) core.OSInterface {
		q := driver.NewQueuedOS(os, 8)
		t.Cleanup(q.Close)
		return q
	})
}

func runMiddlewareReconcilerRace(t *testing.T, wrap func(core.OSInterface) core.OSInterface) {
	kernel := newFakeKernel()
	cached := newCachedOS(kernel)
	state, err := NewDesiredState(nil)
	if err != nil {
		t.Fatal(err)
	}
	trail := core.NewAuditTrail(64, nil)
	ident := func(tid int) uint64 {
		id, err := kernel.ThreadIdentity(tid)
		if err != nil {
			return 0
		}
		return id
	}
	var backend core.OSInterface = cached
	if wrap != nil {
		backend = wrap(backend)
	}
	gate := core.NewDriverGate().ExclusiveOS(RecordOS(core.AuditOS(backend, trail), state, ident, nil))

	drv := &raceDriver{}
	prios := core.LogicalSchedule{}
	for i := 0; i < 6; i++ {
		tid := 100 + i
		kernel.spawn(tid, uint64(5000+tid))
		name := string(rune('a' + i))
		drv.ents = append(drv.ents, core.Entity{
			Name: name, Driver: "race", Query: "q", Thread: tid, Logical: []string{name},
		})
		prios[name] = float64(10 * (i + 1))
	}

	mw := core.NewMiddleware(nil)
	policy := core.Transformed(&core.StaticLogicalPolicy{
		PolicyName: "race", Priorities: prios, Default: 0,
	}, core.MaxPriorityRule)
	period := time.Millisecond
	if err := mw.Bind(core.Binding{
		Policy:     policy,
		Translator: core.NewNiceTranslator(gate),
		Drivers:    []core.Driver{drv},
		Period:     period,
	}); err != nil {
		t.Fatal(err)
	}

	rec := New(Config{OS: gate, Observer: kernel, State: state})

	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the daemon's step loop
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := mw.Step(time.Duration(i) * period); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the reconcile loop
		defer wg.Done()
		for i := 0; i < rounds/3; i++ {
			rec.Reconcile()
		}
	}()
	go func() { // the adversary
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < rounds; i++ {
			kernel.interfereNice(100+rng.Intn(6), rng.Intn(40)-20)
		}
	}()
	wg.Wait()

	// Interference has stopped; one pass must restore every entity.
	rec.Reconcile()
	final := rec.Reconcile()
	if !final.Converged {
		t.Fatalf("post-race pass did not converge: %+v", final)
	}
	for _, e := range state.Entries() {
		if e.Kind != KindNice {
			continue
		}
		if got := kernel.niceOf(e.TID); got != e.Value {
			t.Fatalf("tid %d: kernel nice %d != desired %d", e.TID, got, e.Value)
		}
	}
}
