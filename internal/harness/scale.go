package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lachesis/internal/core"
)

// The scale experiment measures what the parallel decision pipeline buys
// as binding counts grow. Each binding watches its own SPE through its own
// driver; a driver fetch costs a modeled monitoring-API round trip (the
// Graphite HTTP call of Algorithm 3, reproduced as a real sleep so the
// wall-clock cost is honest). The sweep runs every binding count twice —
// once on the sequential legacy cycle, once on the parallel pipeline with
// per-binding write coalescing — and reports decision-cycle p50/p95,
// control ops per interval, the no-op suppression ratio, and whether the
// two runs reached identical scheduling decisions (replayed from the
// audit trails, order-insensitively).
//
// The speedup comes from overlapping fetch latency, not from CPU
// parallelism: even on a single core, 256 concurrent 150µs round trips
// complete in a few pool turns instead of 38ms of serialized waiting.

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
)

// scaleBindingCounts is the classic swept axis (16 -> 512 bindings),
// measured exactly as the original sweep: sequential vs parallel, audit
// on, no memoization, churn every 4 periods.
var scaleBindingCounts = []int{16, 64, 256, 512}

// scaleChurnEvery is the classic sweep's burst period (op0 bursts every 4
// decision periods, phased per driver).
const scaleChurnEvery = 4

// scaleBigChurnEvery is the extended sweep's burst period: at thousands
// of queries, load shifts hit any one query far less often than every 4s,
// so the extended rows model a ~16-period plateau per query. The value is
// recorded in the row (ChurnEvery) — the scale claim is explicitly "cycle
// cost tracks the changing subset", not "cost is flat under any churn".
const scaleBigChurnEvery = 16

// bigCount parameterizes one extended-scale row: binding count and shard
// fan-out for the sharded timing run.
//
// Extended timing runs set the modeled fetch latency to zero. This is a
// deliberate measurement decision, not an optimization: n independent
// 150µs sleeps serialize through the host's kernel timer path at a few
// microseconds per expiry, so at 2k+ drivers a "cycle" would mostly
// measure the measurement host's timer throughput (~10ms at 2k on a
// single-core box) rather than the middleware. The classic 16-512 rows
// keep the full IO model and already prove fetch-latency overlap; the
// extended rows isolate what this sweep is about — the decision-loop
// ceiling itself.
type bigCount struct {
	n      int
	shards int
}

// scaleBigConfigs maps the supported extended counts to their shard
// fan-out.
var scaleBigConfigs = map[int]bigCount{
	2000:  {n: 2000, shards: 8},
	4000:  {n: 4000, shards: 8},
	10000: {n: 10000, shards: 16},
}

// scaleDriver is a synthetic core.Driver standing in for one SPE's metric
// endpoint: Fetch sleeps the modeled round trip, then returns
// deterministic queue sizes — churning during warmup (so decisions
// change and writes happen), constant afterwards (so steady state is
// reached and no-op suppression becomes measurable).
type scaleDriver struct {
	name       string
	idx        int
	ents       []core.Entity
	latency    time.Duration
	warmup     time.Duration
	churnEvery int
	vals       core.EntityValues // reused fetch map (provider copies out)
}

var _ core.Driver = (*scaleDriver)(nil)

// newScaleDriver builds binding i's driver with scaleEntities operators on
// unique fake tids belonging to query q<i>. latency 0 disables the
// modeled round-trip sleep (equivalence runs: latency shifts timing,
// never decisions, so the decision-identity check need not pay it).
func newScaleDriver(i int, warmup, latency time.Duration, churnEvery int) *scaleDriver {
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
		name:       name,
		idx:        i,
		ents:       ents,
		latency:    latency,
		warmup:     warmup,
		churnEvery: churnEvery,
		vals:       make(core.EntityValues, scaleEntities),
	}
}

// Name implements core.Driver.
func (d *scaleDriver) Name() string { return d.name }

// Entities implements core.Driver. The cached slice is returned directly:
// the middleware only iterates it, and a stable slice keeps both the
// steady-state cycle and the memo comparison allocation-free.
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
	// core hot-path bench: sweep drivers never fail (so last-good values
	// are never served from an aliased stale map) and no derived metrics
	// read a previous fetch's map.
	for j, e := range d.ents {
		d.vals[e.Name] = d.queue(j, now)
	}
	return d.vals, nil
}

// queue is the deterministic queue-size trajectory of operator j: a ramp
// whose slope differs per operator while warming (decision churn), then a
// steady-state plateau with a phased burst every churnEvery periods —
// real workloads keep shifting occasionally, so the coalescer must let
// genuinely changed decisions through while absorbing the unchanged bulk.
func (d *scaleDriver) queue(j int, now time.Duration) float64 {
	base := float64(10 * (j + 1))
	if now < d.warmup {
		return base + float64(now/scalePeriod)*float64(j+1)*3
	}
	if j == 0 && (int(now/scalePeriod)+d.idx)%d.churnEvery == 0 {
		return base * 8 // op0 bursts: this period's schedule differs
	}
	return base * 4
}

// scaleCountingOS is the terminal OS sink of the scale stacks: every op
// that survives the chain counts as one would-be syscall.
type scaleCountingOS struct {
	ops atomic.Int64
}

var _ core.OSInterface = (*scaleCountingOS)(nil)

func (c *scaleCountingOS) SetNice(tid, nice int) error         { c.ops.Add(1); return nil }
func (c *scaleCountingOS) EnsureCgroup(name string) error      { c.ops.Add(1); return nil }
func (c *scaleCountingOS) SetShares(name string, sh int) error { c.ops.Add(1); return nil }
func (c *scaleCountingOS) MoveThread(tid int, nm string) error { c.ops.Add(1); return nil }

// scaleRun is one measured (bindings, pipeline) cell of the sweep.
type scaleRun struct {
	steps       int64 // measured (post-warmup) decision cycles
	p50, p95    time.Duration
	mean        time.Duration
	opsPerStep  float64 // control ops per decision interval, post-warmup
	suppressed  int64   // coalescer-suppressed ops, post-warmup
	issued      int64   // coalescer-passed ops, post-warmup
	memoPerStep float64 // memo-served bindings per decision interval
	auditEvents []core.AuditEvent
}

// scaleConfig selects one measured cell: binding count, pipeline shape
// (sequential loop, parallel pipeline, or sharded fan-out), whether the
// audit trail records (timing runs at extended counts turn it off; the
// separate equivalence runs turn it on with latency 0), decision
// memoization, the modeled fetch latency, the workload's churn period,
// and the pool widths.
type scaleConfig struct {
	n            int
	warmupSteps  int
	measureSteps int
	mode         string // "seq", "par", or "shard"
	shards       int    // shard count for mode "shard"
	audited      bool
	memoize      bool
	latency      time.Duration
	churnEvery   int
	fetchWorkers int
}

// classicSeq/classicPar are the original sweep's two cells, unchanged.
func classicSeq(n, warmup, measure int) scaleConfig {
	return scaleConfig{
		n: n, warmupSteps: warmup, measureSteps: measure,
		mode: "seq", audited: true,
		latency: scaleFetchLatency, churnEvery: scaleChurnEvery,
	}
}

func classicPar(n, warmup, measure int) scaleConfig {
	return scaleConfig{
		n: n, warmupSteps: warmup, measureSteps: measure,
		mode: "par", audited: true,
		latency: scaleFetchLatency, churnEvery: scaleChurnEvery,
		fetchWorkers: scaleFetchWorkers,
	}
}

// runScale steps cfg.n bindings through warmup+measure virtual periods on
// the host clock and measures the post-warmup cycles. For mode "shard"
// every shard is stepped concurrently from its own goroutine at the same
// virtual time — the deployment shape where each shard runs its own clock
// loop — and one "cycle" lasts until the slowest shard finishes.
func runScale(cfg scaleConfig) (scaleRun, error) {
	var sink *core.MemorySink
	var trail *core.AuditTrail
	if cfg.audited {
		sink = &core.MemorySink{}
		trail = core.NewAuditTrail(0, sink)
	}
	cnt := &scaleCountingOS{}
	warmup := time.Duration(cfg.warmupSteps) * scalePeriod

	coalescers := make([]*core.Coalescer, 0, cfg.n)
	bindOne := func(bindFn func(core.Binding) error, i int) error {
		drv := newScaleDriver(i, warmup, cfg.latency, cfg.churnEvery)
		var chain core.OSInterface = cnt
		if cfg.audited {
			chain = core.AuditOS(cnt, trail)
		}
		var co *core.Coalescer
		if cfg.mode != "seq" {
			co = core.NewCoalescer(chain, nil)
			chain = co
			coalescers = append(coalescers, co)
		}
		if err := bindFn(core.Binding{
			Policy:     core.GroupPerQuery(core.NewQSPolicy()),
			Translator: core.NewCombinedTranslator(chain, 0, 0),
			Drivers:    []core.Driver{drv},
			Coalescer:  co,
			Period:     scalePeriod,
			Memoize:    cfg.memoize,
		}); err != nil {
			return fmt.Errorf("bind %s: %w", drv.name, err)
		}
		return nil
	}

	// step runs one virtual period and returns the step's memoized count.
	var step func(now time.Duration) (int, error)
	switch cfg.mode {
	case "seq":
		mw := core.NewMiddleware(nil)
		defer mw.Close()
		if trail != nil {
			mw.SetAudit(trail)
		}
		mw.SetParallelism(core.Parallelism{Disabled: true})
		for i := 0; i < cfg.n; i++ {
			if err := bindOne(mw.Bind, i); err != nil {
				return scaleRun{}, err
			}
		}
		step = func(now time.Duration) (int, error) {
			st, err := mw.Step(now)
			return st.Memoized, err
		}
	case "par":
		mw := core.NewMiddleware(nil)
		defer mw.Close()
		if trail != nil {
			mw.SetAudit(trail)
		}
		mw.SetParallelism(core.Parallelism{FetchWorkers: cfg.fetchWorkers})
		mw.SetWriteGate(core.NewDriverGate())
		for i := 0; i < cfg.n; i++ {
			if err := bindOne(mw.Bind, i); err != nil {
				return scaleRun{}, err
			}
		}
		step = func(now time.Duration) (int, error) {
			st, err := mw.Step(now)
			return st.Memoized, err
		}
	case "shard":
		sh := core.NewShardedMiddleware(nil, cfg.shards)
		defer sh.Close()
		if trail != nil {
			sh.SetAudit(trail)
		}
		perShardFetch := cfg.fetchWorkers / cfg.shards
		if perShardFetch < 1 {
			perShardFetch = 1
		}
		sh.SetParallelism(core.Parallelism{FetchWorkers: perShardFetch})
		for i := 0; i < cfg.n; i++ {
			if err := bindOne(sh.Bind, i); err != nil {
				return scaleRun{}, err
			}
		}
		step = func(now time.Duration) (int, error) {
			var wg sync.WaitGroup
			memos := make([]int, cfg.shards)
			errs := make([]error, cfg.shards)
			for i := 0; i < cfg.shards; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, err := sh.StepShard(i, now)
					memos[i], errs[i] = st.Memoized, err
				}(i)
			}
			wg.Wait()
			memo := 0
			for _, m := range memos {
				memo += m
			}
			return memo, errors.Join(errs...)
		}
	default:
		return scaleRun{}, fmt.Errorf("unknown scale mode %q", cfg.mode)
	}

	coalesceTotals := func() (sup, iss int64) {
		for _, co := range coalescers {
			sup += co.Suppressed()
			iss += co.Issued()
		}
		return sup, iss
	}

	// Warmup cycles: reach steady state, unmeasured.
	for s := 0; s < cfg.warmupSteps; s++ {
		if _, err := step(time.Duration(s) * scalePeriod); err != nil {
			return scaleRun{}, fmt.Errorf("warmup step %d: %w", s, err)
		}
	}
	opsWarm := cnt.ops.Load()
	supWarm, issWarm := coalesceTotals()

	// Warmup (Bind + ramp) allocates; the steady cycle does not. Collect
	// that garbage now so a stray GC pause from setup debt doesn't land
	// inside the measured window.
	runtime.GC()

	// Measured cycles.
	durs := make([]time.Duration, 0, cfg.measureSteps)
	var memoTotal int64
	for s := 0; s < cfg.measureSteps; s++ {
		now := time.Duration(cfg.warmupSteps+s) * scalePeriod
		t0 := time.Now()
		memo, err := step(now)
		if err != nil {
			return scaleRun{}, fmt.Errorf("step %d: %w", cfg.warmupSteps+s, err)
		}
		durs = append(durs, time.Since(t0))
		memoTotal += int64(memo)
	}

	run := scaleRun{steps: int64(cfg.measureSteps)}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	run.p50 = durs[len(durs)/2]
	run.p95 = durs[(len(durs)-1)*95/100]
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	run.mean = total / time.Duration(len(durs))
	run.opsPerStep = float64(cnt.ops.Load()-opsWarm) / float64(cfg.measureSteps)
	sup, iss := coalesceTotals()
	run.suppressed = sup - supWarm
	run.issued = iss - issWarm
	run.memoPerStep = float64(memoTotal) / float64(cfg.measureSteps)
	if sink != nil {
		run.auditEvents = sink.Events()
	}
	return run, nil
}

// scheduleState is the effective scheduling posture an audit trail
// describes once replayed: the last successfully applied value per knob.
type scheduleState struct {
	nices  map[int]int
	shares map[string]int
	placed map[int]string
}

// replayAudit folds a trail's control-op events into the final schedule
// state. Replay is order-insensitive across bindings because bindings
// touch disjoint threads and cgroups; within a binding the trail is
// ordered.
func replayAudit(events []core.AuditEvent) scheduleState {
	st := scheduleState{
		nices:  make(map[int]int),
		shares: make(map[string]int),
		placed: make(map[int]string),
	}
	for _, e := range events {
		if e.Outcome != core.AuditOutcomeOK {
			continue
		}
		switch e.Kind {
		case core.AuditKindNice:
			if e.NewNice != nil {
				st.nices[e.Thread] = *e.NewNice
			}
		case core.AuditKindShares:
			if e.NewShares != nil {
				st.shares[e.Cgroup] = *e.NewShares
			}
		case core.AuditKindMove:
			st.placed[e.Thread] = e.Cgroup
		}
	}
	return st
}

// applyKey identifies one binding-apply decision for the order-insensitive
// multiset comparison.
type applyKey struct {
	At         time.Duration
	Policy     string
	Translator string
	Entities   int
	Outcome    string
}

// applyMultiset counts the apply-kind events of a trail.
func applyMultiset(events []core.AuditEvent) map[applyKey]int {
	out := make(map[applyKey]int)
	for _, e := range events {
		if e.Kind != core.AuditKindApply {
			continue
		}
		out[applyKey{e.At, e.Policy, e.Translator, e.Entities, e.Outcome}]++
	}
	return out
}

// decisionsMatch reports whether two runs reached the same scheduling
// decisions: every binding applied at the same virtual times with the
// same outcomes (apply multisets equal) and the replayed final schedule
// state — nice per thread, shares per cgroup, placement per thread — is
// identical. Write suppression removes redundant writes from the parallel
// trail, never decisions, so both checks must hold.
func decisionsMatch(seq, par []core.AuditEvent) bool {
	if !maps.Equal(applyMultiset(seq), applyMultiset(par)) {
		return false
	}
	a, b := replayAudit(seq), replayAudit(par)
	return maps.Equal(a.nices, b.nices) &&
		maps.Equal(a.shares, b.shares) &&
		maps.Equal(a.placed, b.placed)
}

// ScaleRow is one binding count of the sweep — the row format of
// BENCH_scale.json.
type ScaleRow struct {
	Bindings int   `json:"bindings"`
	Entities int   `json:"entities"`
	Steps    int64 `json:"steps"`
	// Sequential-cycle decision cost (ns).
	SeqP50Ns  int64 `json:"seq_p50_ns"`
	SeqP95Ns  int64 `json:"seq_p95_ns"`
	SeqMeanNs int64 `json:"seq_mean_ns"`
	// Parallel-pipeline decision cost (ns).
	ParP50Ns  int64 `json:"par_p50_ns"`
	ParP95Ns  int64 `json:"par_p95_ns"`
	ParMeanNs int64 `json:"par_mean_ns"`
	// SpeedupP95 is seq p95 / par p95.
	SpeedupP95 float64 `json:"speedup_p95"`
	// Would-be syscalls per decision interval, post-warmup.
	SeqOpsPerInterval float64 `json:"seq_ops_per_interval"`
	ParOpsPerInterval float64 `json:"par_ops_per_interval"`
	// Coalescer diff outcome at steady state.
	Suppressed         int64   `json:"suppressed"`
	Issued             int64   `json:"issued"`
	SuppressedFraction float64 `json:"suppressed_fraction"`
	// DecisionsMatch reports the order-insensitive audit replay check.
	DecisionsMatch bool `json:"decisions_match"`

	// Extended-scale fields (2k/4k/10k rows only).
	//
	// Extended marks a row measured under the extended protocol: timing
	// runs are audit-off and memoized (the production hot-path shape),
	// the sequential pipeline is not timed (serialized 150µs round trips
	// alone would cost n*~1ms per cycle — there is nothing left to
	// learn), and decision equivalence is instead proved by a separate
	// latency-0, audit-on pair (sequential baseline vs sharded run):
	// fetch latency shifts timing, never decisions.
	Extended bool `json:"extended,omitempty"`
	// ChurnEvery is the workload's burst period (one op bursts every
	// ChurnEvery decision periods per binding, phased): 4 on classic
	// rows, 16 on extended rows.
	ChurnEvery int `json:"churn_every,omitempty"`
	// Shards is the shard fan-out of the sharded timing run.
	Shards int `json:"shards,omitempty"`
	// Sharded decision-cycle cost (ns): every shard stepped concurrently
	// from its own clock loop; a cycle lasts until the slowest shard
	// finishes.
	ShardP50Ns  int64 `json:"shard_p50_ns,omitempty"`
	ShardP95Ns  int64 `json:"shard_p95_ns,omitempty"`
	ShardMeanNs int64 `json:"shard_mean_ns,omitempty"`
	// MemoizedPerInterval is how many bindings per decision interval the
	// parallel timing run served from the decision memo.
	MemoizedPerInterval float64 `json:"memoized_per_interval,omitempty"`
}

// ScaleReport is the BENCH_scale.json document.
type ScaleReport struct {
	Experiment   string     `json:"experiment"`
	WarmupSteps  int        `json:"warmup_steps"`
	MeasureSteps int        `json:"measure_steps"`
	FetchWorkers int        `json:"fetch_workers"`
	Rows         []ScaleRow `json:"rows"`
}

// scaleSteps converts a Scale's virtual windows into step counts at the
// sweep's one-second decision period.
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

// runScalePair measures one classic binding count on both pipelines.
func runScalePair(n, warmup, measure int) (ScaleRow, error) {
	row := ScaleRow{Bindings: n, Entities: n * scaleEntities}
	seq, err := runScale(classicSeq(n, warmup, measure))
	if err != nil {
		return row, fmt.Errorf("sequential %d: %w", n, err)
	}
	par, err := runScale(classicPar(n, warmup, measure))
	if err != nil {
		return row, fmt.Errorf("parallel %d: %w", n, err)
	}
	row.Steps = seq.steps
	row.SeqP50Ns, row.SeqP95Ns, row.SeqMeanNs = seq.p50.Nanoseconds(), seq.p95.Nanoseconds(), seq.mean.Nanoseconds()
	row.ParP50Ns, row.ParP95Ns, row.ParMeanNs = par.p50.Nanoseconds(), par.p95.Nanoseconds(), par.mean.Nanoseconds()
	if par.p95 > 0 {
		row.SpeedupP95 = float64(seq.p95) / float64(par.p95)
	}
	row.SeqOpsPerInterval = seq.opsPerStep
	row.ParOpsPerInterval = par.opsPerStep
	row.Suppressed = par.suppressed
	row.Issued = par.issued
	if total := par.suppressed + par.issued; total > 0 {
		row.SuppressedFraction = float64(par.suppressed) / float64(total)
	}
	row.DecisionsMatch = decisionsMatch(seq.auditEvents, par.auditEvents)
	return row, nil
}

// runScaleExtended measures one extended binding count (2k/4k/10k).
//
// Four runs per row:
//
//  1. parallel timing — audit off, memoized, fetch latency 0 (see the
//     bigCount doc for why modeled sleeps are omitted at this scale);
//     the production hot-path shape. Par* fields.
//  2. sharded timing — same, partitioned over bc.shards shards stepped
//     concurrently on independent clock loops. Shard* fields.
//  3. + 4. equivalence pair — latency 0, audit on, memoized: sequential
//     baseline vs the sharded run. DecisionsMatch proves that shard
//     partitioning plus pooled parallel applies plus memoization change
//     no scheduling decision, only where and when the cycles execute.
func runScaleExtended(bc bigCount, warmup, measure int) (ScaleRow, error) {
	row := ScaleRow{
		Bindings:   bc.n,
		Entities:   bc.n * scaleEntities,
		Extended:   true,
		ChurnEvery: scaleBigChurnEvery,
		Shards:     bc.shards,
	}
	// Extended warmup: every binding must pass its first post-ramp burst
	// before measurement, or lazily-allocated first-burst paths and
	// unsettled memos leak into the measured window.
	if warmup < scaleBigChurnEvery+2 {
		warmup = scaleBigChurnEvery + 2
	}

	// fetchWorkers 1 runs the cycle inline: with no modeled latency there
	// is nothing to overlap, and on a small host dispatching n memoized
	// (near-empty) jobs through the pool costs more than running them.
	timing := scaleConfig{
		n: bc.n, warmupSteps: warmup, measureSteps: measure,
		mode: "par", audited: false, memoize: true,
		latency: 0, churnEvery: scaleBigChurnEvery,
		fetchWorkers: 1,
	}
	par, err := runScale(timing)
	if err != nil {
		return row, fmt.Errorf("extended parallel %d: %w", bc.n, err)
	}

	shardTiming := timing
	shardTiming.mode = "shard"
	shardTiming.shards = bc.shards
	shd, err := runScale(shardTiming)
	if err != nil {
		return row, fmt.Errorf("extended sharded %d: %w", bc.n, err)
	}

	// Equivalence pair: identical virtual workload, no modeled latency.
	equiv := scaleConfig{
		n: bc.n, warmupSteps: warmup, measureSteps: measure,
		mode: "seq", audited: true, memoize: true,
		latency: 0, churnEvery: scaleBigChurnEvery,
	}
	seqE, err := runScale(equiv)
	if err != nil {
		return row, fmt.Errorf("equivalence sequential %d: %w", bc.n, err)
	}
	equiv.mode = "shard"
	equiv.shards = bc.shards
	equiv.fetchWorkers = bc.shards // each shard runs its cycle inline
	shdE, err := runScale(equiv)
	if err != nil {
		return row, fmt.Errorf("equivalence sharded %d: %w", bc.n, err)
	}

	row.Steps = par.steps
	row.ParP50Ns, row.ParP95Ns, row.ParMeanNs = par.p50.Nanoseconds(), par.p95.Nanoseconds(), par.mean.Nanoseconds()
	row.ShardP50Ns, row.ShardP95Ns, row.ShardMeanNs = shd.p50.Nanoseconds(), shd.p95.Nanoseconds(), shd.mean.Nanoseconds()
	row.MemoizedPerInterval = par.memoPerStep
	row.SeqOpsPerInterval = seqE.opsPerStep
	row.ParOpsPerInterval = par.opsPerStep
	row.Suppressed = par.suppressed
	row.Issued = par.issued
	if total := par.suppressed + par.issued; total > 0 {
		row.SuppressedFraction = float64(par.suppressed) / float64(total)
	}
	row.DecisionsMatch = decisionsMatch(seqE.auditEvents, shdE.auditEvents)
	return row, nil
}

// scaleExp sweeps the binding counts, prints the comparison table, and
// emits BENCH_scale.json into sc.ArtifactDir when set.
func scaleExp(w io.Writer, sc Scale) error {
	warmup, measure := scaleSteps(sc)
	report := ScaleReport{
		Experiment:   "scale",
		WarmupSteps:  warmup,
		MeasureSteps: measure,
		FetchWorkers: scaleFetchWorkers,
	}
	for _, n := range scaleBindingCounts {
		if sc.Progress != nil {
			sc.Progress(fmt.Sprintf("scale: %d binding(s), sequential vs parallel", n))
		}
		row, err := runScalePair(n, warmup, measure)
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
	}
	for _, n := range sc.BigCounts {
		bc, ok := scaleBigConfigs[n]
		if !ok {
			return fmt.Errorf("scale: unsupported extended binding count %d", n)
		}
		if sc.Progress != nil {
			sc.Progress(fmt.Sprintf("scale: %d binding(s), extended (parallel vs %d shards + equivalence)", n, bc.shards))
		}
		row, err := runScaleExtended(bc, warmup, measure)
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
	}

	fmt.Fprintln(w, "# Scale: sequential vs parallel decision pipeline (write coalescing on)")
	fmt.Fprintf(w, "%9s %11s %11s %9s %10s %10s %7s %6s\n",
		"bindings", "seq-p95", "par-p95", "speedup", "seq-ops/i", "par-ops/i", "suppr", "match")
	for _, r := range report.Rows {
		if r.Extended {
			continue
		}
		fmt.Fprintf(w, "%9d %11v %11v %8.1fx %10.0f %10.0f %6.0f%% %6v\n",
			r.Bindings, time.Duration(r.SeqP95Ns), time.Duration(r.ParP95Ns),
			r.SpeedupP95, r.SeqOpsPerInterval, r.ParOpsPerInterval,
			r.SuppressedFraction*100, r.DecisionsMatch)
	}
	fmt.Fprintln(w)
	if len(sc.BigCounts) > 0 {
		fmt.Fprintln(w, "# Extended scale: memoized hot path, audit-off timing; equivalence via latency-0 audit pair")
		fmt.Fprintf(w, "%9s %7s %11s %11s %8s %7s %6s\n",
			"bindings", "shards", "par-p95", "shard-p95", "memo/i", "suppr", "match")
		for _, r := range report.Rows {
			if !r.Extended {
				continue
			}
			fmt.Fprintf(w, "%9d %7d %11v %11v %8.0f %6.0f%% %6v\n",
				r.Bindings, r.Shards, time.Duration(r.ParP95Ns), time.Duration(r.ShardP95Ns),
				r.MemoizedPerInterval, r.SuppressedFraction*100, r.DecisionsMatch)
		}
		fmt.Fprintln(w)
	}

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_scale.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	return nil
}
