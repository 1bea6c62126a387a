package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the barrier-free decision cycle (parallel.go): a binding runs
// as soon as its own drivers have answered, on the worker that saw the
// last answer. Run under -race; every wait is on an event.

// pipeDriver is a driver for pipeline tests. fetch, when set, runs at the
// top of every Fetch and may block or fail; done counts completed fetches.
type pipeDriver struct {
	name  string
	ents  []Entity
	vals  EntityValues
	fetch func(now time.Duration) error
	done  atomic.Int64
}

// newPipeDriver builds a driver with two operators of one query, the
// first with the longer queue.
func newPipeDriver(name string, tidBase int) *pipeDriver {
	a, b := name+".a", name+".b"
	return &pipeDriver{
		name: name,
		ents: []Entity{
			{Name: a, Driver: name, Query: name + ".q", Thread: tidBase},
			{Name: b, Driver: name, Query: name + ".q", Thread: tidBase + 1},
		},
		vals: EntityValues{a: 5, b: 1},
	}
}

func (d *pipeDriver) Name() string                { return d.name }
func (d *pipeDriver) Entities() []Entity          { return d.ents }
func (d *pipeDriver) Provides(metric string) bool { return metric == MetricQueueSize }

func (d *pipeDriver) Fetch(_ string, now time.Duration) (EntityValues, error) {
	if d.fetch != nil {
		if err := d.fetch(now); err != nil {
			return nil, err
		}
	}
	d.done.Add(1)
	return d.vals, nil
}

// tableOS is a concurrency-safe kernel table. onWrite, when set, observes
// every nice write after it landed.
type tableOS struct {
	mu      sync.Mutex
	nices   map[int]int
	onWrite func(tid int)
}

func newTableOS() *tableOS { return &tableOS{nices: make(map[int]int)} }

func (o *tableOS) SetNice(tid, nice int) error {
	o.mu.Lock()
	o.nices[tid] = nice
	o.mu.Unlock()
	if o.onWrite != nil {
		o.onWrite(tid)
	}
	return nil
}
func (o *tableOS) EnsureCgroup(string) error    { return nil }
func (o *tableOS) SetShares(string, int) error  { return nil }
func (o *tableOS) MoveThread(int, string) error { return nil }

func (o *tableOS) table() map[int]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[int]int, len(o.nices))
	for tid, n := range o.nices {
		out[tid] = n
	}
	return out
}

// stepAsync runs one Step on its own goroutine and returns a channel that
// yields its error.
func stepAsync(mw *Middleware, now time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := mw.Step(now)
		done <- err
	}()
	return done
}

// await fails the test when ch does not deliver within the guard time — a
// deadlock guard, not a pacing device.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestPipelineNoHeadOfLineBlocking: while driver A's fetch is stuck,
// binding B — which does not read A — reaches the kernel.
func TestPipelineNoHeadOfLineBlocking(t *testing.T) {
	a, b := newPipeDriver("a", 100), newPipeDriver("b", 200)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	a.fetch = func(time.Duration) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}
	os := newTableOS()
	wroteB := make(chan struct{}, 1)
	os.onWrite = func(tid int) {
		if tid == 200 {
			select {
			case wroteB <- struct{}{}:
			default:
			}
		}
	}
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(NewDriverGate())
	for _, d := range []*pipeDriver{a, b} {
		if err := mw.Bind(Binding{
			Policy: NewQSPolicy(), Translator: NewNiceTranslator(os),
			Drivers: []Driver{d}, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := stepAsync(mw, 0)
	await(t, entered, "driver a's fetch to start")
	await(t, wroteB, "binding b's kernel write while driver a is stuck")
	if _, wrote := os.table()[100]; wrote {
		t.Error("binding a wrote before its driver answered")
	}
	close(release)
	if err := await(t, done, "the step to finish"); err != nil {
		t.Fatal(err)
	}
	if _, wrote := os.table()[100]; !wrote {
		t.Error("binding a never wrote after its driver answered")
	}
}

// depPolicy is a QS policy that checks the pipeline's dependency rules at
// the moment it runs: every driver it reads has finished this cycle's
// fetch, it runs once per cycle, and no binding sharing excl runs at the
// same time.
type depPolicy struct {
	QSPolicy
	t     *testing.T
	label string
	deps  []*pipeDriver
	cycle *atomic.Int64 // completed fetches each dep must show
	runs  atomic.Int64
	excl  *atomic.Int32
}

func (p *depPolicy) Schedule(view *View) (Schedule, error) {
	if n := p.excl.Add(1); n != 1 {
		p.t.Errorf("%s: %d bindings sharing a driver ran at once", p.label, n)
	}
	defer p.excl.Add(-1)
	p.runs.Add(1)
	for _, d := range p.deps {
		if got, want := d.done.Load(), p.cycle.Load(); got != want {
			p.t.Errorf("%s ran with driver %s at %d fetches, cycle needs %d", p.label, d.name, got, want)
		}
	}
	return p.QSPolicy.Schedule(view)
}

// TestPipelineDependencies: a two-driver binding runs exactly once per
// cycle and only after both fetches; a shared driver releases every
// binding that reads it, and those never overlap.
func TestPipelineDependencies(t *testing.T) {
	x, y, z := newPipeDriver("x", 100), newPipeDriver("y", 200), newPipeDriver("z", 300)
	var cycle atomic.Int64
	var excl atomic.Int32
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(NewDriverGate())
	os := newTableOS()
	// All three bindings read y, so all three serialize through its lock.
	shapes := [][]*pipeDriver{{x, y}, {y}, {y, z}}
	var pols []*depPolicy
	for i, deps := range shapes {
		p := &depPolicy{
			QSPolicy: NewQSPolicy(), t: t, label: "binding" + strconv.Itoa(i),
			deps: deps, cycle: &cycle, excl: &excl,
		}
		pols = append(pols, p)
		drivers := make([]Driver, len(deps))
		for j, d := range deps {
			drivers[j] = d
		}
		if err := mw.Bind(Binding{
			Policy: p, Translator: NewNiceTranslator(os),
			Drivers: drivers, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	const cycles = 200
	for c := 1; c <= cycles; c++ {
		cycle.Store(int64(c))
		st, err := mw.Step(time.Duration(c) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.PoliciesRun != len(shapes) || len(st.Drivers) != 3 {
			t.Fatalf("cycle %d: %d policies over %d drivers, want %d over 3", c, st.PoliciesRun, len(st.Drivers), len(shapes))
		}
	}
	for _, p := range pols {
		if got := p.runs.Load(); got != cycles {
			t.Errorf("%s ran %d times in %d cycles", p.label, got, cycles)
		}
	}
	for _, d := range []*pipeDriver{x, y, z} {
		if got := d.done.Load(); got != cycles {
			t.Errorf("driver %s fetched %d times in %d cycles", d.name, got, cycles)
		}
	}
}

// flakyPolicy fails while failing(now) says so.
type flakyPolicy struct {
	QSPolicy
	failing func(now time.Duration) bool
}

func (p *flakyPolicy) Schedule(view *View) (Schedule, error) {
	if p.failing(view.Now) {
		return Schedule{}, errors.New("induced policy failure")
	}
	return p.QSPolicy.Schedule(view)
}

// pipelineTrace is everything an observer of a run can compare: per-cycle
// stats (wall-clock durations zeroed) and error text, the final health
// snapshot, and the final kernel table.
type pipelineTrace struct {
	stats  []StepStats
	errs   []string
	health Health
	table  map[int]int
}

// runFaultScenario drives a fixed fault timeline — a driver outage short
// enough for stale fallback, one long enough to open a breaker (with a
// reset through the OS chain), a failing policy — through a middleware
// with the given pool width.
func runFaultScenario(t *testing.T, workers int) pipelineTrace {
	t.Helper()
	sec := func(now time.Duration) int { return int(now / time.Second) }
	outage := func(from, to int) func(time.Duration) error {
		return func(now time.Duration) error {
			if s := sec(now); s >= from && s < to {
				return fmt.Errorf("connection refused at %ds", s)
			}
			return nil
		}
	}
	const n = 6
	ds := make([]*pipeDriver, n)
	for i := range ds {
		ds[i] = newPipeDriver("d"+strconv.Itoa(i), 100*(i+1))
	}
	ds[1].fetch = outage(3, 5)  // within the staleness bound: stale fallback
	ds[3].fetch = outage(2, 14) // past it: bindings lose the driver, breaker opens
	ds[5].fetch = outage(6, 30) // never recovers

	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetParallelism(Parallelism{FetchWorkers: workers})
	mw.SetWriteGate(NewDriverGate())
	mw.SetResilience(Resilience{
		FailureThreshold: 2, StalenessBound: 3 * time.Second,
		MaxBackoff: 4 * time.Second, Degraded: DegradedReset,
	})
	os := newTableOS()
	bind := func(p Policy, drivers ...Driver) {
		t.Helper()
		if err := mw.Bind(Binding{
			Policy: p, Translator: NewNiceTranslator(os),
			Drivers: drivers, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	bind(NewQSPolicy(), ds[0], ds[1]) // survives on d0 while d1 is stale
	bind(NewQSPolicy(), ds[1])
	bind(NewQSPolicy(), ds[2])
	bind(NewQSPolicy(), ds[2]) // shares d2 with the binding above
	bind(NewQSPolicy(), ds[3])
	bind(NewQSPolicy(), ds[3], ds[5]) // loses both drivers for a while
	bind(&flakyPolicy{QSPolicy: NewQSPolicy(), failing: func(now time.Duration) bool {
		s := sec(now)
		return s >= 4 && s < 9
	}}, ds[4])

	var tr pipelineTrace
	for c := 0; c < 24; c++ {
		st, err := mw.Step(time.Duration(c) * time.Second)
		st.Wall = 0
		st.Bindings = append([]BindingStepStats(nil), st.Bindings...)
		for i := range st.Bindings {
			st.Bindings[i].Schedule, st.Bindings[i].Apply = 0, 0
		}
		st.Drivers = append([]DriverStepStats(nil), st.Drivers...)
		for i := range st.Drivers {
			st.Drivers[i].Fetch = 0
		}
		tr.stats = append(tr.stats, st)
		tr.errs = append(tr.errs, fmt.Sprint(err))
	}
	tr.health = mw.Health()
	tr.table = os.table()
	return tr
}

// TestPipelineWidthEquivalence: pool width changes when things happen,
// never what happens — through fetch failures, stale fallbacks and a
// breaker lifecycle, one worker and eight produce the same kernel table,
// the same StepStats in the same order, and the same Health.
func TestPipelineWidthEquivalence(t *testing.T) {
	one, eight := runFaultScenario(t, 1), runFaultScenario(t, 8)
	var stale, quarantined, failed bool
	for _, st := range one.stats {
		for _, d := range st.Drivers {
			stale = stale || d.Stale
			failed = failed || (d.Err != "" && !d.Stale)
		}
		quarantined = quarantined || st.Quarantined > 0
	}
	if !stale || !quarantined || !failed {
		t.Fatalf("scenario lost its teeth: stale=%v quarantined=%v failed=%v", stale, quarantined, failed)
	}
	for c := range one.stats {
		if !reflect.DeepEqual(one.stats[c], eight.stats[c]) {
			t.Errorf("cycle %d stats differ:\n 1 worker:  %+v\n 8 workers: %+v", c, one.stats[c], eight.stats[c])
		}
		if one.errs[c] != eight.errs[c] {
			t.Errorf("cycle %d errors differ:\n 1 worker:  %s\n 8 workers: %s", c, one.errs[c], eight.errs[c])
		}
	}
	if !reflect.DeepEqual(one.health, eight.health) {
		t.Errorf("health differs:\n 1 worker:  %+v\n 8 workers: %+v", one.health, eight.health)
	}
	if !reflect.DeepEqual(one.table, eight.table) {
		t.Errorf("kernel table differs:\n 1 worker:  %v\n 8 workers: %v", one.table, eight.table)
	}
}

// soloPolicy reports any two of its kind running at once.
type soloPolicy struct {
	QSPolicy
	t      *testing.T
	active *atomic.Int32
}

func (p *soloPolicy) Schedule(view *View) (Schedule, error) {
	if n := p.active.Add(1); n != 1 {
		p.t.Errorf("%d bindings ran at once with no gate installed", n)
	}
	defer p.active.Add(-1)
	return p.QSPolicy.Schedule(view)
}

// TestPipelineNoGateSerializesApplies: with no DriverGate the middleware
// cannot tell which writes conflict, so binding runs are mutually
// exclusive — while fetches still overlap (the first cycle's first two
// fetches each wait for the other to start).
func TestPipelineNoGateSerializesApplies(t *testing.T) {
	const n = 8
	var active atomic.Int32
	os := &overlapOS{inner: newFakeOS()}
	mw := NewMiddleware(nil)
	defer mw.Close()
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := 0; i < n; i++ {
		d := newPipeDriver("d"+strconv.Itoa(i), 100*(i+1))
		if i < 2 {
			mine, other := started[i], started[1-i]
			var once sync.Once
			d.fetch = func(time.Duration) error {
				once.Do(func() {
					close(mine)
					<-other
				})
				return nil
			}
		}
		if err := mw.Bind(Binding{
			Policy:     &soloPolicy{QSPolicy: NewQSPolicy(), t: t, active: &active},
			Translator: NewNiceTranslator(os),
			Drivers:    []Driver{d}, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 50; c++ {
		if err := await(t, stepAsync(mw, time.Duration(c)*time.Second), "the step (fetches must overlap)"); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&os.max); got != 1 {
		t.Errorf("max concurrent control ops = %d, want 1", got)
	}
}

// orderPolicy is one face of a stateful policy shared by every binding of
// a middleware: each call flips the priority order it hands out, so the
// kernel table depends on the order the bindings ran in. The shared state
// is deliberately unsynchronized — overlapping runs are a data race.
type orderPolicy struct {
	QSPolicy
	name string
	st   *orderState
}

type orderState struct {
	calls int
	log   []string
}

func (p *orderPolicy) Name() string { return p.name }

func (p *orderPolicy) Schedule(view *View) (Schedule, error) {
	p.st.calls++
	p.st.log = append(p.st.log, fmt.Sprintf("%d:%s", view.Now/time.Second, p.name))
	sched, err := p.QSPolicy.Schedule(view)
	if err == nil && p.st.calls%2 == 1 {
		for name, prio := range sched.Single {
			sched.Single[name] = -prio
		}
	}
	return sched, err
}

// reverser makes the fetches of one cycle finish in reverse driver order:
// driver i's fetch returns only once every higher-numbered driver's has.
type reverser struct {
	mu   sync.Mutex
	cond *sync.Cond
	left int // fetches of the cycle still to finish
}

func (r *reverser) wait(i int) {
	r.mu.Lock()
	for r.left != i+1 {
		r.cond.Wait()
	}
	r.left--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// orderTrace is what a no-gate run must reproduce at any pool width.
type orderTrace struct {
	calls  []string
	events []AuditEvent
	table  map[int]int
}

// runNoGateScenario steps a no-gate middleware — several drivers, N:M
// bindings, a stateful policy shared by all of them, a driver outage that
// goes from stale fallback to unusable and back — and, with more than one
// worker, forces every cycle's fetches to finish in reverse order.
func runNoGateScenario(t *testing.T, workers int) orderTrace {
	t.Helper()
	const n = 6
	rev := &reverser{}
	rev.cond = sync.NewCond(&rev.mu)
	ds := make([]*pipeDriver, n)
	for i := range ds {
		i := i
		ds[i] = newPipeDriver("d"+strconv.Itoa(i), 100*(i+1))
		ds[i].fetch = func(now time.Duration) error {
			if workers > 1 {
				rev.wait(i)
			}
			if s := int(now / time.Second); i == 2 && s >= 3 && s < 9 {
				return fmt.Errorf("connection refused at %ds", s)
			}
			return nil
		}
	}
	trail := NewAuditTrail(4096, nil)
	os := newTableOS()
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetParallelism(Parallelism{FetchWorkers: workers})
	mw.SetAudit(trail)
	// No breaker in this scenario: every driver is fetched every cycle,
	// which is what the reverser counts on.
	mw.SetResilience(Resilience{FailureThreshold: 1000, StalenessBound: 2 * time.Second})
	st := &orderState{}
	shapes := [][]int{{0}, {1, 2}, {2}, {3}, {2, 4}, {5}, {0, 5}}
	for k, shape := range shapes {
		drivers := make([]Driver, len(shape))
		for j, i := range shape {
			drivers[j] = ds[i]
		}
		if err := mw.Bind(Binding{
			Policy:     &orderPolicy{QSPolicy: NewQSPolicy(), name: "p" + strconv.Itoa(k), st: st},
			Translator: NewNiceTranslator(AuditOS(os, trail)),
			Drivers:    drivers, Period: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 12; c++ {
		rev.mu.Lock()
		rev.left = n
		rev.mu.Unlock()
		// Driver failures surface as the step's error; they are the scenario.
		await(t, stepAsync(mw, time.Duration(c)*time.Second), "the step")
	}
	return orderTrace{calls: st.log, events: trail.Last(4096), table: os.table()}
}

// TestPipelineNoGateKeepsBindingOrder: with no DriverGate, bindings run in
// binding order whatever order their fetches finish in, so a stateful
// policy shared across drivers, the audit trail and last-writer kernel
// state are the same for one worker and eight; and a failed driver's
// audit event precedes the first apply that reads the driver.
func TestPipelineNoGateKeepsBindingOrder(t *testing.T) {
	one, eight := runNoGateScenario(t, 1), runNoGateScenario(t, 8)
	if !reflect.DeepEqual(one.calls, eight.calls) {
		t.Errorf("policy call order differs:\n 1 worker:  %v\n 8 workers: %v", one.calls, eight.calls)
	}
	if !reflect.DeepEqual(one.events, eight.events) {
		t.Errorf("audit trails differ (%d vs %d events)", len(one.events), len(eight.events))
		for i := 0; i < len(one.events) && i < len(eight.events); i++ {
			if !reflect.DeepEqual(one.events[i], eight.events[i]) {
				t.Errorf("first difference at %d:\n 1 worker:  %+v\n 8 workers: %+v", i, one.events[i], eight.events[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(one.table, eight.table) {
		t.Errorf("kernel table differs:\n 1 worker:  %v\n 8 workers: %v", one.table, eight.table)
	}

	// Bindings p1, p2 and p4 read the failing driver d2.
	readers := map[string]bool{"p1": true, "p2": true, "p4": true}
	var stale, unusable int
	for i, e := range eight.events {
		if e.Kind != AuditKindDriver {
			continue
		}
		if e.Driver != "d2" {
			t.Errorf("driver event for %s, only d2 fails", e.Driver)
		}
		if len(e.Outcome) > 5 && e.Outcome[:5] == "stale" {
			stale++
		} else {
			unusable++
		}
		for _, prev := range eight.events[:i] {
			if prev.At == e.At && readers[prev.Policy] {
				t.Errorf("event %d (%s at %v) follows an event of %s, which read the driver", e.Seq, e.Outcome, e.At, prev.Policy)
			}
		}
	}
	if stale == 0 || unusable == 0 {
		t.Errorf("scenario lost its teeth: %d stale-fallback, %d unusable driver events", stale, unusable)
	}
}

// TestPipelineAbandonedFetchKeepsLastGood: an abandoned fetch that
// completes late makes the map the middleware still holds as last-good the
// provider's spare buffer. The driver's next update must not recycle it: a
// binding falling back to last-good values while that update runs (it is
// abandoned too) has to read the complete, untouched map. Under -race the
// recycling shows as a clear/read race; without it, as a schedule computed
// from an emptied map.
func TestPipelineAbandonedFetchKeepsLastGood(t *testing.T) {
	d := newPipeDriver("d", 100)
	// Fetch 0 answers at once; fetches 1 and 2 hang until released.
	release := []chan struct{}{nil, make(chan struct{}), make(chan struct{})}
	var calls atomic.Int32
	d.fetch = func(time.Duration) error {
		if ch := release[calls.Add(1)-1]; ch != nil {
			<-ch
		}
		return nil
	}
	os := newTableOS()
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetParallelism(Parallelism{FetchTimeout: 50 * time.Millisecond})
	if err := mw.Bind(Binding{
		Policy: NewQSPolicy(), Translator: NewNiceTranslator(os),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// drain waits until the abandoned update has returned: it holds the
	// driver's in-flight lock until then.
	drain := func(ch chan struct{}) {
		close(ch)
		fl := mw.provider.flightLock(d.name)
		fl.Lock()
		defer fl.Unlock()
	}
	want := map[int]int{100: -20, 101: 19}

	if err := await(t, stepAsync(mw, 0), "cycle 0"); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		os.mu.Lock()
		clear(os.nices)
		os.mu.Unlock()
		err := await(t, stepAsync(mw, time.Duration(cycle)*time.Second), "a cycle with a hung fetch")
		if !errors.Is(err, ErrFetchTimeout) {
			t.Fatalf("cycle %d: err = %v, want the fetch timeout", cycle, err)
		}
		if got := os.table(); !reflect.DeepEqual(got, want) {
			t.Errorf("cycle %d scheduled %v from its last-good values, want %v", cycle, got, want)
		}
		drain(release[cycle])
	}
}

// TestShippedDefaultsSteadyCycleZeroAllocs pins the allocation budget of
// the configuration the binaries ship — default pool, write gate, audit
// trail, AuditOS and a per-binding coalescer bracketing every apply — on a
// steady cycle (no priority moves, so nothing reaches the kernel).
func TestShippedDefaultsSteadyCycleZeroAllocs(t *testing.T) {
	os := &nopOS{}
	trail := NewAuditTrail(0, nil)
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(NewDriverGate())
	mw.SetAudit(trail)
	for i := 0; i < 32; i++ {
		co := NewCoalescer(AuditOS(os, trail), nil)
		if err := mw.Bind(Binding{
			Policy:     GroupPerQuery(NewQSPolicy()),
			Translator: NewCombinedTranslator(co, 0, 0),
			Coalescer:  co,
			Drivers:    []Driver{newPipeDriver("spe"+strconv.Itoa(i), 1000+10*i)},
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
	writes := os.calls()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("steady cycle through the shipped defaults allocates %.1f times, want 0", avg)
	}
	if got := os.calls(); got != writes {
		t.Errorf("steady cycle wrote to the kernel: %d calls", got-writes)
	}
}
