package core

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// benchDriver is an allocation-free driver for steady-state cycle tests:
// Entities returns a cached slice and Fetch refills one owned values map.
// Reusing the fetch map is safe here because the bench registers no
// derived metrics (nothing reads ComputeCtx.Prev).
type benchDriver struct {
	name string
	ents []Entity
	vals EntityValues
	tick float64
}

func newBenchDriver(name string, firstTID, nEnts int) *benchDriver {
	d := &benchDriver{name: name, vals: make(EntityValues, nEnts)}
	for i := 0; i < nEnts; i++ {
		d.ents = append(d.ents, Entity{
			Name:   name + "-op" + string(rune('a'+i)),
			Driver: name,
			Query:  name + "-q",
			Thread: firstTID + i,
		})
	}
	return d
}

func (d *benchDriver) Name() string { return d.name }

// Entities returns the cached slice; the middleware only iterates it.
func (d *benchDriver) Entities() []Entity { return d.ents }

func (d *benchDriver) Provides(metric string) bool { return metric == MetricQueueSize }

func (d *benchDriver) Fetch(metric string, now time.Duration) (EntityValues, error) {
	d.tick++
	for i, e := range d.ents {
		d.vals[e.Name] = float64((int(d.tick)+i)%7) * 10
	}
	return d.vals, nil
}

// nopOS counts control ops without allocating.
type nopOS struct {
	nices, ensures, shares, moves atomic.Int64
}

func (o *nopOS) SetNice(tid, nice int) error             { o.nices.Add(1); return nil }
func (o *nopOS) EnsureCgroup(name string) error          { o.ensures.Add(1); return nil }
func (o *nopOS) SetShares(name string, shares int) error { o.shares.Add(1); return nil }
func (o *nopOS) MoveThread(tid int, name string) error   { o.moves.Add(1); return nil }

// calls sums all control traffic the backend has seen.
func (o *nopOS) calls() int64 {
	return o.nices.Load() + o.ensures.Load() + o.shares.Load() + o.moves.Load()
}

// benchMiddleware assembles the scale-harness shape without audit, spans,
// or watchdog: n bindings, each over its own driver with entsPer
// entities, GroupPerQuery(QS) through a combined translator and a
// per-binding coalescer, parallel pipeline with a write gate.
func benchMiddleware(tb testing.TB, n, entsPer int) (*Middleware, *nopOS) {
	tb.Helper()
	os := &nopOS{}
	mw := NewMiddleware(nil)
	mw.SetWriteGate(NewDriverGate())
	mw.SetParallelism(Parallelism{FetchWorkers: 8})
	for i := 0; i < n; i++ {
		d := newBenchDriver("spe"+strconv.Itoa(i), 1000+i*entsPer, entsPer)
		if err := mw.Bind(Binding{
			Policy:     GroupPerQuery(NewQSPolicy()),
			Translator: NewCombinedTranslator(NewCoalescer(os, nil), 0, 0),
			Drivers:    []Driver{d},
			Period:     time.Second,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return mw, os
}

// TestSteadyCycleZeroAllocs is the tentpole guarantee: after warmup, a
// full decision cycle — fetch, schedule, translate, coalesce, apply —
// performs zero heap allocations per Step.
func TestSteadyCycleZeroAllocs(t *testing.T) {
	mw, _ := benchMiddleware(t, 32, 4)
	defer mw.Close()
	now := time.Duration(0)
	step := func() {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += time.Second
	}
	for i := 0; i < 5; i++ {
		step() // warmup: scratch buffers, pools, interned keys materialize
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per cycle, want 0", avg)
	}
}

// TestChurnCycleThroughAuditZeroAllocs: priorities move every cycle, so
// renices pass the coalescer and AuditOS records each one with its old and
// new value — still without an allocation (the nice pointers of an audit
// event come from a shared table).
func TestChurnCycleThroughAuditZeroAllocs(t *testing.T) {
	os := &nopOS{}
	trail := NewAuditTrail(0, nil)
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(NewDriverGate())
	mw.SetAudit(trail)
	for i := 0; i < 8; i++ {
		co := NewCoalescer(AuditOS(os, trail), nil)
		if err := mw.Bind(Binding{
			Policy:     GroupPerQuery(NewQSPolicy()),
			Translator: NewCombinedTranslator(co, 0, 0),
			Coalescer:  co,
			Drivers:    []Driver{newBenchDriver("spe"+strconv.Itoa(i), 1000+i*4, 4)},
			Period:     time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	step := func() {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += time.Second
	}
	for i := 0; i < 5; i++ {
		step()
	}
	writes, events := os.nices.Load(), trail.Total()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("churning cycle through the audit wrapper allocates %.1f times, want 0", avg)
	}
	// Every renice that reached the kernel was a decision, and was audited.
	if w, e := os.nices.Load()-writes, trail.Total()-events; w < 21*8 || e < w {
		t.Errorf("scenario lost its teeth: %d renices, %d audit events over 21 cycles", w, e)
	}
}

// TestSteadyCycleZeroAllocsSequential covers the same guarantee with the
// parallel pipeline disabled (the sequential baseline the scale
// experiment compares against).
func TestSteadyCycleZeroAllocsSequential(t *testing.T) {
	os := &nopOS{}
	mw := NewMiddleware(nil)
	for i := 0; i < 8; i++ {
		d := newBenchDriver("seq"+strconv.Itoa(i), 5000+i*4, 4)
		if err := mw.Bind(Binding{
			Policy:     GroupPerQuery(NewQSPolicy()),
			Translator: NewCombinedTranslator(os, 0, 0),
			Drivers:    []Driver{d},
			Period:     time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mw.SetParallelism(Parallelism{Disabled: true})
	defer mw.Close()
	now := time.Duration(0)
	step := func() {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += time.Second
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("sequential steady-state Step allocates %.1f times per cycle, want 0", avg)
	}
}

// BenchmarkSteadyCycle reports the steady-state cycle cost and, via
// ReportAllocs, enforces visibility of the 0 allocs/op claim in bench
// output (go test -bench SteadyCycle -benchmem).
func BenchmarkSteadyCycle(b *testing.B) {
	mw, _ := benchMiddleware(b, 64, 4)
	defer mw.Close()
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		if _, err := mw.Step(now); err != nil {
			b.Fatal(err)
		}
		now += time.Second
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mw.Step(now); err != nil {
			b.Fatal(err)
		}
		now += time.Second
	}
}

// countingNamePolicy counts Name() calls: the regression guard for the
// per-cycle label/name dedup fix (names are cached at Bind; stats
// assembly must not call user code every cycle).
type countingNamePolicy struct {
	QSPolicy
	names atomic.Int64
}

func (p *countingNamePolicy) Name() string {
	p.names.Add(1)
	return "counting"
}

// TestBindingNamesCachedAtBind locks in the satellite fix: Policy.Name()
// and Translator.Name() are called a bounded number of times at Bind and
// never again during steady cycles, and binding labels are deduped once
// (not re-scanned per cycle).
func TestBindingNamesCachedAtBind(t *testing.T) {
	os := &nopOS{}
	mw := NewMiddleware(nil)
	d := newBenchDriver("spe", 100, 4)
	pol := &countingNamePolicy{}
	if err := mw.Bind(Binding{
		Policy: pol, Translator: NewNiceTranslator(os),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// A second binding of the same pair exercises the label dedup path.
	if err := mw.Bind(Binding{
		Policy: pol, Translator: NewNiceTranslator(os),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	atBind := pol.names.Load()
	if atBind == 0 {
		t.Fatal("expected Name() calls during Bind")
	}
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += time.Second
	}
	if got := pol.names.Load(); got != atBind {
		t.Fatalf("Name() called %d times during 10 steps (total %d, at bind %d); names must be cached at Bind",
			got-atBind, got, atBind)
	}
	// The two bindings' stats labels stay distinct (dedup happened once).
	stats, err := mw.Step(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Bindings) != 2 {
		t.Fatalf("got %d binding stats, want 2", len(stats.Bindings))
	}
	if stats.Bindings[0].Label == stats.Bindings[1].Label {
		t.Fatalf("labels not deduped: both %q", stats.Bindings[0].Label)
	}
}
