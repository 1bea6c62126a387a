package harness

import (
	"os"
	"testing"
	"time"

	"lachesis/internal/core"
)

// TestScaleExtendedSmall smokes the extended-scale protocol on a small
// count: timing runs produce percentiles, memoization engages, and the
// latency-0 equivalence pair proves decision identity.
func TestScaleExtendedSmall(t *testing.T) {
	row, err := runScaleExtended(bigCount{n: 48, shards: 4}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Extended || row.Shards != 4 || row.ChurnEvery != scaleBigChurnEvery {
		t.Fatalf("row mislabeled: %+v", row)
	}
	if row.ParP95Ns <= 0 || row.ShardP95Ns <= 0 {
		t.Fatalf("timing runs produced no percentiles: par=%d shard=%d", row.ParP95Ns, row.ShardP95Ns)
	}
	if row.MemoizedPerInterval <= 0 {
		t.Fatalf("memoization never engaged (memo/interval = %v)", row.MemoizedPerInterval)
	}
	if !row.DecisionsMatch {
		t.Fatal("sharded + memoized decisions diverged from the sequential baseline")
	}
	if row.SuppressedFraction <= 0 {
		t.Fatalf("no write suppression at steady state: %+v", row)
	}
}

// TestScaleRegressionGate is the CI hot-path budget gate (satellite of
// the scale story): a quick 2000-binding run in the production hot-path
// shape — memoized, audit off — must keep decision-cycle p95 under the
// 10ms budget, and the same shape at a smaller count must hold the
// zero-allocation steady state. Like the extended BENCH rows, the
// timing half runs at fetch latency 0: thousands of independent 150µs
// sleeps serialize through the kernel timer path (~5µs per expiry) and
// would gate the CI host's timer throughput, not the decision loop.
// Opt-in via LACHESIS_SCALE_GATE=1: it is meant for the dedicated CI
// job, not every `go test ./...`.
func TestScaleRegressionGate(t *testing.T) {
	if os.Getenv("LACHESIS_SCALE_GATE") == "" {
		t.Skip("set LACHESIS_SCALE_GATE=1 to run the scale regression gate")
	}

	// Allocation half of the gate: a memoized steady state allocates
	// nothing per cycle. Latency 0 — allocations don't depend on sleeps.
	const allocBindings = 256
	mw := core.NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(core.NewDriverGate())
	mw.SetParallelism(core.Parallelism{FetchWorkers: 8})
	cnt := &scaleCountingOS{}
	for i := 0; i < allocBindings; i++ {
		drv := newScaleDriver(i, 3*scalePeriod, 0, scaleBigChurnEvery)
		co := core.NewCoalescer(cnt, nil)
		if err := mw.Bind(core.Binding{
			Policy:     core.GroupPerQuery(core.NewQSPolicy()),
			Translator: core.NewCombinedTranslator(co, 0, 0),
			Drivers:    []core.Driver{drv},
			Coalescer:  co,
			Period:     scalePeriod,
			Memoize:    true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	// Warm past the ramp and every binding's first burst (lazy paths).
	for s := 0; s < scaleBigChurnEvery+4; s++ {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += scalePeriod
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		now += scalePeriod
	})
	if allocs != 0 {
		t.Errorf("steady decision cycle allocates: %v allocs/op, want 0", allocs)
	}

	// Timing half of the gate: the 2k-binding production shape.
	bc := scaleBigConfigs[2000]
	run, err := runScale(scaleConfig{
		n: bc.n, warmupSteps: scaleBigChurnEvery + 2, measureSteps: 20,
		mode: "par", audited: false, memoize: true,
		latency: 0, churnEvery: scaleBigChurnEvery,
		fetchWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10 * time.Millisecond
	if run.p95 >= budget {
		t.Fatalf("2000-binding cycle p95 = %v, budget %v (p50 %v, mean %v)", run.p95, budget, run.p50, run.mean)
	}
	t.Logf("scale gate: 2k cycle p50=%v p95=%v mean=%v memo/i=%.0f", run.p50, run.p95, run.mean, run.memoPerStep)
}
