package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"lachesis/internal/core"
)

// The synthetic many-binding stack the traceoverhead experiment steps:
// each binding watches its own SPE through its own driver, and a driver
// fetch costs a modeled monitoring-API round trip (the Graphite HTTP call
// of Algorithm 3, reproduced as a real sleep so the wall-clock cost is
// honest). The terminal OS sink only counts.

const (
	// scaleFetchLatency models one monitoring-API round trip per driver
	// (the per-driver jitter spreads real deployments' variance).
	scaleFetchLatency = 150 * time.Microsecond
	scaleLatencySpan  = 50 * time.Microsecond
	// scaleEntities is the operator count per binding's query.
	scaleEntities = 4
	// scalePeriod is every binding's decision period (virtual time).
	scalePeriod = time.Second
	// Wider-than-default worker pool: fetches are pure IO waits, so the
	// pool is sized for overlap, not cores.
	scaleFetchWorkers = 32
	// scaleChurnEvery is the steady-state burst period (op0 bursts every 4
	// decision periods, phased per driver).
	scaleChurnEvery = 4
)

// scaleDriver is a synthetic core.Driver standing in for one SPE's metric
// endpoint: Fetch sleeps the modeled round trip, then returns
// deterministic queue sizes — churning during warmup (so decisions
// change and writes happen), constant afterwards (so steady state is
// reached and no-op suppression becomes measurable).
type scaleDriver struct {
	name    string
	idx     int
	ents    []core.Entity
	latency time.Duration
	warmup  time.Duration
	vals    core.EntityValues // reused fetch map (provider copies out)
}

var _ core.Driver = (*scaleDriver)(nil)

// newScaleDriver builds binding i's driver with scaleEntities operators on
// unique fake tids belonging to query q<i>. latency 0 disables the
// modeled round-trip sleep.
func newScaleDriver(i int, warmup, latency time.Duration) *scaleDriver {
	name := fmt.Sprintf("spe-%03d", i)
	query := fmt.Sprintf("q%03d", i)
	ents := make([]core.Entity, scaleEntities)
	for j := range ents {
		ents[j] = core.Entity{
			Name:   fmt.Sprintf("%s/op%d", query, j),
			Driver: name,
			Query:  query,
			Thread: 100000 + i*scaleEntities + j,
		}
	}
	if latency > 0 {
		latency += time.Duration(i%7) * scaleLatencySpan / 7
	}
	return &scaleDriver{
		name:    name,
		idx:     i,
		ents:    ents,
		latency: latency,
		warmup:  warmup,
		vals:    make(core.EntityValues, scaleEntities),
	}
}

// Name implements core.Driver.
func (d *scaleDriver) Name() string { return d.name }

// Entities implements core.Driver. The cached slice is returned directly:
// the middleware only iterates it, and a stable slice keeps the
// steady-state cycle allocation-free.
func (d *scaleDriver) Entities() []core.Entity { return d.ents }

// Provides implements core.Driver.
func (d *scaleDriver) Provides(metric string) bool {
	return metric == core.MetricQueueSize
}

// Fetch implements core.Driver: one modeled monitoring round trip, then
// deterministic per-operator queue sizes for the given virtual time.
func (d *scaleDriver) Fetch(metric string, now time.Duration) (core.EntityValues, error) {
	if metric != core.MetricQueueSize {
		return nil, &core.UnknownMetricError{Metric: metric, Driver: d.name}
	}
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	// Refilling one owned map is safe here for the same reasons as the
	// core hot-path bench: these drivers never fail (so last-good values
	// are never served from an aliased stale map) and no derived metrics
	// read a previous fetch's map.
	for j, e := range d.ents {
		d.vals[e.Name] = d.queue(j, now)
	}
	return d.vals, nil
}

// queue is the deterministic queue-size trajectory of operator j: a ramp
// whose slope differs per operator while warming (decision churn), then a
// steady-state plateau with a phased burst every scaleChurnEvery periods —
// real workloads keep shifting occasionally, so the coalescer must let
// genuinely changed decisions through while absorbing the unchanged bulk.
func (d *scaleDriver) queue(j int, now time.Duration) float64 {
	base := float64(10 * (j + 1))
	if now < d.warmup {
		return base + float64(now/scalePeriod)*float64(j+1)*3
	}
	if j == 0 && (int(now/scalePeriod)+d.idx)%scaleChurnEvery == 0 {
		return base * 8 // op0 bursts: this period's schedule differs
	}
	return base * 4
}

// scaleCountingOS is the terminal OS sink of the synthetic stack: every op
// that survives the chain counts as one would-be syscall.
type scaleCountingOS struct {
	ops atomic.Int64
}

var _ core.OSInterface = (*scaleCountingOS)(nil)

func (c *scaleCountingOS) SetNice(tid, nice int) error         { c.ops.Add(1); return nil }
func (c *scaleCountingOS) EnsureCgroup(name string) error      { c.ops.Add(1); return nil }
func (c *scaleCountingOS) SetShares(name string, sh int) error { c.ops.Add(1); return nil }
func (c *scaleCountingOS) MoveThread(tid int, nm string) error { c.ops.Add(1); return nil }

// scaleSteps converts a Scale's virtual windows into step counts at the
// synthetic stack's one-second decision period.
func scaleSteps(sc Scale) (warmup, measure int) {
	warmup = int(sc.Warmup / scalePeriod)
	if warmup < 3 {
		warmup = 3
	}
	measure = int(sc.Measure / scalePeriod)
	if measure < 8 {
		measure = 8
	}
	return warmup, measure
}
