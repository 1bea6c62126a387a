package main

import (
	"fmt"
	"time"

	"lachesis/internal/core"
)

// period is every binding's scheduling period on the virtual clock. Cycle
// c is stepped at virtual time c*period, so all bindings are due in every
// cycle and a driver recovers the cycle index from the time it is asked
// about.
const period = time.Second

// warmupCycles are stepped during set-up, before the first measured cycle:
// they take every lazily created buffer, cgroup and mirror entry out of
// the measured window.
const warmupCycles = 100

// niceLevels is the number of distinct nice values (-20..19). Loads are
// drawn from that many evenly spaced slots, so that min-max normalization
// maps distinct slots to distinct nice values (and, 200 shares apart, to
// distinct cpu.shares), whatever the seed.
const niceLevels = 40

// shape is the part of a workload the program under test can observe: how
// many SPE processes, queries and operators there are, how often a query's
// load shifts, how long a metric fetch takes and which write chain is
// wired. Nothing in it names the workload.
type shape struct {
	Bindings    int // bindings, each with one driver of its own
	Queries     int // queries per binding
	OpsPerQuery int
	// ShiftEvery is how many cycles a query keeps one load assignment; at
	// each shift the loads of its operators rotate by one position, so
	// every operator of the query changes priority. Queries are phased by
	// index, so 1/ShiftEvery of them shift in any one cycle.
	ShiftEvery     int
	RTTMin, RTTMax time.Duration // a Fetch sleeps a seeded time in [RTTMin, RTTMax)
	// PerOpCgroups schedules through cpu.shares with one cgroup per
	// operator (QS policy, shares translator: lachesisd's "cpu.shares"), so
	// every changed priority is a write to a cgroup control file. Otherwise
	// each query is a cgroup of equal shares and operators are reniced
	// inside it (GroupPerQuery(QS), combined translator), so once threads
	// are placed every changed priority is a setpriority call.
	PerOpCgroups bool
	// Deep wires the chain cmd/lachesisd wires (guard, state log, write
	// queue, file-backed System, watchdog, span recorder) around the single
	// binding; otherwise each binding has coalescer -> audit over a shared
	// oslinux.Control and an in-memory System.
	Deep bool
}

func (s shape) entitiesPerBinding() int { return s.Queries * s.OpsPerQuery }
func (s shape) entities() int           { return s.Bindings * s.entitiesPerBinding() }
func (s shape) queries() int            { return s.Bindings * s.Queries }

// groupsPerBinding is how many cgroups a binding manages.
func (s shape) groupsPerBinding() int {
	if s.PerOpCgroups {
		return s.entitiesPerBinding()
	}
	return s.Queries
}
func (s shape) groups() int { return s.Bindings * s.groupsPerBinding() }

// tidBase is the first synthetic thread id; six digits, so every tid
// prints at the same width.
const tidBase = 100000

// inputs is everything a run feeds the program, as a pure function of the
// seed and the shape: operator names, thread ids, queue sizes per cycle
// and fetch round-trip times.
type inputs struct {
	shape shape
	seed  uint64
	// mags[g] are the queue sizes the operators of query g (global index)
	// take turns carrying.
	mags [][]float64
}

// splitmix64 is the mixing step of the SplitMix64 generator; chained calls
// give the seeded stream the inputs are drawn from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s = splitmix64(r.s); return r.s }

// unit returns a float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func newInputs(sh shape, seed int64) *inputs {
	in := &inputs{shape: sh, seed: uint64(seed), mags: make([][]float64, sh.queries())}
	r := &rng{s: splitmix64(uint64(seed))}
	for b := 0; b < sh.Bindings; b++ {
		// One offset and scale per binding: priorities are normalized over
		// a binding's entities, so they must share the slot grid.
		offset := 10 + 90*r.unit()
		unit := 1 + 9*r.unit()
		for q := 0; q < sh.Queries; q++ {
			slots := pickSlots(r, sh.OpsPerQuery)
			m := make([]float64, len(slots))
			for i, s := range slots {
				// The jitter keeps loads from being round numbers without
				// moving any of them across a rounding boundary of the
				// normalization (they stay within 0.2 of their slot).
				m[i] = offset + unit*(float64(s)+0.1*(r.unit()-0.5))
			}
			in.mags[b*sh.Queries+q] = m
		}
	}
	return in
}

// pickSlots draws n distinct slots in seeded order, always including the
// lowest and the highest so every query spans the whole nice range.
func pickSlots(r *rng, n int) []int {
	if n < 2 || n > niceLevels {
		panic(fmt.Sprintf("bench: %d operators per query do not fit %d nice levels", n, niceLevels))
	}
	inner := make([]int, 0, niceLevels-2)
	for s := 1; s < niceLevels-1; s++ {
		inner = append(inner, s)
	}
	slots := []int{0, niceLevels - 1}
	for len(slots) < n {
		i := int(r.next() % uint64(len(inner)))
		slots = append(slots, inner[i])
		inner = append(inner[:i], inner[i+1:]...)
	}
	// Seeded shuffle: which operator starts on which slot.
	for i := len(slots) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		slots[i], slots[j] = slots[j], slots[i]
	}
	return slots
}

// queue is the queue size of operator k of query g (global index) in the
// given cycle.
func (in *inputs) queue(g, k, cycle int) float64 {
	m := in.mags[g]
	epoch := (cycle + g%in.shape.ShiftEvery) / in.shape.ShiftEvery
	return m[(k+epoch)%len(m)]
}

// rtt is the round-trip time of driver b's fetch in the given cycle.
func (in *inputs) rtt(b, cycle int) time.Duration {
	span := in.shape.RTTMax - in.shape.RTTMin
	if span <= 0 {
		return in.shape.RTTMin
	}
	h := splitmix64(in.seed ^ splitmix64(uint64(b)<<32|uint64(cycle)))
	return in.shape.RTTMin + time.Duration(h%uint64(span))
}

func driverName(b int) string { return fmt.Sprintf("spe-%04d", b) }
func queryName(g int) string  { return fmt.Sprintf("q%04d", g) }

func opName(g, k int) string { return fmt.Sprintf("%s/op%02d", queryName(g), k) }

// groupDir is the directory oslinux gives cgroup i of the shape: the
// per-operator group of operator i, or the group GroupPerQuery derives for
// query i.
func (s shape) groupDir(i int) string {
	if s.PerOpCgroups {
		return fmt.Sprintf("%s_op%02d", queryName(i/s.OpsPerQuery), i%s.OpsPerQuery)
	}
	return "query-" + queryName(i)
}

// entitiesOf lists binding b's operators. Thread ids are dense from
// tidBase in (binding, query, operator) order, so a tid identifies its
// binding and query by division.
func (in *inputs) entitiesOf(b int) []core.Entity {
	sh := in.shape
	ents := make([]core.Entity, 0, sh.entitiesPerBinding())
	for q := 0; q < sh.Queries; q++ {
		g := b*sh.Queries + q
		for k := 0; k < sh.OpsPerQuery; k++ {
			ents = append(ents, core.Entity{
				Name:   opName(g, k),
				Driver: driverName(b),
				Query:  queryName(g),
				Thread: tidBase + g*sh.OpsPerQuery + k,
			})
		}
	}
	return ents
}

// synthDriver is one SPE's metric endpoint: it publishes the generated
// queue sizes of its operators and nothing else.
type synthDriver struct {
	name string
	b    int
	in   *inputs
	ents []core.Entity
	vals core.EntityValues // refilled per fetch, as harness/scale.go does
	sys  *benchSystem      // receives the fetch-return stamp
}

var _ core.Driver = (*synthDriver)(nil)

func newSynthDriver(in *inputs, b int, sys *benchSystem) *synthDriver {
	ents := in.entitiesOf(b)
	return &synthDriver{
		name: driverName(b), b: b, in: in, ents: ents,
		vals: make(core.EntityValues, len(ents)), sys: sys,
	}
}

func (d *synthDriver) Name() string            { return d.name }
func (d *synthDriver) Entities() []core.Entity { return d.ents }
func (d *synthDriver) Provides(m string) bool  { return m == core.MetricQueueSize }

// Fetch implements core.Driver: one modeled monitoring round trip, then
// the queue sizes of the cycle that virtual time now falls in.
func (d *synthDriver) Fetch(metric string, now time.Duration) (core.EntityValues, error) {
	if metric != core.MetricQueueSize {
		return nil, &core.UnknownMetricError{Metric: metric, Driver: d.name}
	}
	cycle := int(now / period)
	if d.in.shape.RTTMax > 0 {
		time.Sleep(d.in.rtt(d.b, cycle))
	}
	sh := d.in.shape
	for i, e := range d.ents {
		d.vals[e.Name] = d.in.queue(d.b*sh.Queries+i/sh.OpsPerQuery, i%sh.OpsPerQuery, cycle)
	}
	d.sys.fetchReturned(d.b)
	return d.vals, nil
}
