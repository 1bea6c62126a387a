package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrFetchInFlight reports that a driver's previous metric fetch is still
// running (it was abandoned by a fetch timeout and has not returned yet).
// The middleware treats it like any other driver failure: the binding
// falls back to the driver's last known-good values for this cycle.
var ErrFetchInFlight = errors.New("core: metric fetch still in flight")

// Provider computes registered metrics for every driver, resolving each
// metric either directly from the driver or recursively through its
// dependency graph with per-driver caching — Algorithm 3 of the paper.
//
// Provider is safe for concurrent use: the middleware's parallel fetch
// pool calls UpdateOne for different drivers concurrently. Updates for the
// *same* driver are serialized by a per-driver in-flight lock; a second
// UpdateOne arriving while the first is still running (possible only when
// a fetch timeout abandoned it) fails fast with ErrFetchInFlight instead
// of racing on the driver's rate window.
type Provider struct {
	registry Registry

	mu         sync.Mutex
	registered map[string]bool

	// prev retains the previous update's values per driver, so derived
	// metrics can compute rates from cumulative counters.
	prev map[string]map[string]EntityValues
	// lastUpdate tracks each driver's last successful update time, so
	// rate windows stay correct when drivers fail (and recover) on
	// independent schedules.
	lastUpdate map[string]time.Duration
	// inflight serializes same-driver updates without blocking: an
	// abandoned (timed-out) fetch keeps the lock until it returns.
	inflight map[string]*sync.Mutex

	// Hot-path reuse: metricsList caches the registered metric names
	// (invalidated by Register); spare double-buffers each driver's
	// retired value cache (rotated with prev on success, so a steady-state
	// update clears and refills a map instead of allocating one); ctxs
	// holds each driver's reusable ComputeCtx. All three are guarded by mu
	// for map access; a driver's spare cache and ctx are only used while
	// its in-flight lock is held.
	metricsList []string
	spare       map[string]map[string]EntityValues
	ctxs        map[string]*ComputeCtx
	// abandoned marks drivers whose caller gave up on an update (abandon):
	// the caller no longer holds the map the provider returned last, so
	// the driver's spare may be the very map the caller still reads.
	abandoned map[string]bool
}

// NewProvider creates a provider over a metric registry (nil selects
// DefaultRegistry).
func NewProvider(registry Registry) *Provider {
	if registry == nil {
		registry = DefaultRegistry()
	}
	return &Provider{
		registry:   registry,
		registered: make(map[string]bool),
		prev:       make(map[string]map[string]EntityValues),
		lastUpdate: make(map[string]time.Duration),
		inflight:   make(map[string]*sync.Mutex),
		spare:      make(map[string]map[string]EntityValues),
		ctxs:       make(map[string]*ComputeCtx),
		abandoned:  make(map[string]bool),
	}
}

// Register declares metrics that policies require (Algorithm 1, line 1).
// Registering an undefined metric is an error.
func (p *Provider) Register(metricNames ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range metricNames {
		if _, ok := p.registry[m]; !ok {
			return fmt.Errorf("core: metric %q not in registry", m)
		}
		p.registered[m] = true
	}
	p.metricsList = nil // invalidate the cached name list
	return nil
}

// Registered returns the registered metric names.
func (p *Provider) Registered() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.registered))
	for m := range p.registered {
		out = append(out, m)
	}
	return out
}

// flightLock returns the in-flight lock for a driver, creating it on
// first use.
func (p *Provider) flightLock(name string) *sync.Mutex {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.inflight[name]
	if !ok {
		l = &sync.Mutex{}
		p.inflight[name] = l
	}
	return l
}

// abandon tells the provider that the caller stopped waiting for a
// driver's running update and will discard its result. The double buffer
// assumes the caller holds the map returned last, which makes the one
// before it — the spare — safe to clear and refill. An update whose result
// is discarded breaks that: once it completes, the spare is the map the
// caller still serves as last-good values. The driver's next update
// therefore drops the spare instead of recycling it.
func (p *Provider) abandon(driver string) {
	p.mu.Lock()
	p.abandoned[driver] = true
	p.mu.Unlock()
}

// Values holds one update's computed metrics: driver -> metric -> entity
// -> value.
type Values map[string]map[string]EntityValues

// Update computes all registered metrics for every driver (Algorithm 3,
// update): each driver gets a fresh computation cache so shared
// dependencies are computed once per driver per period. The first failing
// driver aborts the whole update; callers that want per-driver isolation
// (the middleware's resilient main loop) use UpdateOne instead.
func (p *Provider) Update(now time.Duration, drivers []Driver) (Values, error) {
	out := make(Values, len(drivers))
	for _, d := range drivers {
		cache, err := p.UpdateOne(now, d)
		if err != nil {
			return nil, err
		}
		out[d.Name()] = cache
	}
	return out, nil
}

// UpdateOne computes all registered metrics for a single driver. On
// failure the driver's previous values and rate window are left intact, so
// a later successful update still computes rates over the full elapsed
// interval — a failed scrape loses resolution, not history.
func (p *Provider) UpdateOne(now time.Duration, d Driver) (map[string]EntityValues, error) {
	fl := p.flightLock(d.Name())
	if !fl.TryLock() {
		return nil, fmt.Errorf("driver %q: %w", d.Name(), ErrFetchInFlight)
	}
	defer fl.Unlock()

	p.mu.Lock()
	var elapsed time.Duration
	if last, ok := p.lastUpdate[d.Name()]; ok {
		elapsed = now - last
	}
	ctx := p.ctxs[d.Name()]
	if ctx == nil {
		ctx = &ComputeCtx{}
		p.ctxs[d.Name()] = ctx
	}
	*ctx = ComputeCtx{Now: now, Elapsed: elapsed, Prev: p.prev[d.Name()]}
	if p.metricsList == nil {
		p.metricsList = make([]string, 0, len(p.registered))
		for m := range p.registered {
			p.metricsList = append(p.metricsList, m)
		}
	}
	metrics := p.metricsList
	// cache is the driver's retired (double-buffered) value map: cleared
	// and refilled, rotated with prev only on success so a failed update
	// leaves prev and the rate window intact.
	cache := p.spare[d.Name()]
	if p.abandoned[d.Name()] {
		// See abandon: the spare may still be read. Leave it to its reader.
		delete(p.abandoned, d.Name())
		delete(p.spare, d.Name())
		cache = nil
	}
	p.mu.Unlock()

	if ctx.Prev == nil {
		ctx.Prev = emptyPrevValues
	}
	if cache == nil {
		cache = make(map[string]EntityValues)
	}
	clear(cache)
	// The driver fetches (potentially slow: a network round trip on a real
	// deployment) run outside the provider mutex; only the bookkeeping
	// above and below holds it.
	for _, m := range metrics {
		if _, err := p.compute(m, d, ctx, cache, nil); err != nil {
			p.mu.Lock()
			p.spare[d.Name()] = cache
			p.mu.Unlock()
			return nil, err
		}
	}

	p.mu.Lock()
	p.spare[d.Name()] = p.prev[d.Name()]
	p.prev[d.Name()] = cache
	p.lastUpdate[d.Name()] = now
	p.mu.Unlock()
	return cache, nil
}

// emptyPrevValues is the shared read-only Prev for a driver's first
// update, so first cycles don't allocate a placeholder map per driver.
var emptyPrevValues = map[string]EntityValues{}

// compute resolves one metric for one driver (Algorithm 3, compute):
// cache hit, then direct fetch, then recursive derivation.
func (p *Provider) compute(metric string, d Driver, ctx *ComputeCtx, cache map[string]EntityValues, stack []string) (EntityValues, error) {
	if v, ok := cache[metric]; ok {
		return v, nil
	}
	for _, s := range stack {
		if s == metric {
			return nil, fmt.Errorf("core: metric dependency cycle at %q", metric)
		}
	}
	if d.Provides(metric) {
		v, err := d.Fetch(metric, ctx.Now)
		if err != nil {
			return nil, fmt.Errorf("fetch %q from %q: %w", metric, d.Name(), err)
		}
		cache[metric] = v
		return v, nil
	}
	def, ok := p.registry[metric]
	if !ok || len(def.Deps) == 0 {
		// Primitive metric the driver cannot provide: misconfiguration.
		return nil, &UnknownMetricError{Metric: metric, Driver: d.Name()}
	}
	deps := make(map[string]EntityValues, len(def.Deps))
	stack = append(stack, metric)
	for _, dep := range def.Deps {
		v, err := p.compute(dep, d, ctx, cache, stack)
		if err != nil {
			return nil, err
		}
		deps[dep] = v
	}
	v := def.Compute(ctx, deps)
	cache[metric] = v
	return v, nil
}
