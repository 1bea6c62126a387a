// Package lachesis_test benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per figure; run with
// -benchtime=1x), report micro-costs of the middleware's hot paths, and
// include ablation benchmarks for the simulator design choices called out
// in DESIGN.md.
//
//	go test -bench=. -benchmem -benchtime=1x
package lachesis_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"lachesis/internal/bloom"
	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/harness"
	"lachesis/internal/metrics"
	"lachesis/internal/simctl"
	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// benchScale trims the experiment windows so a full -bench=. run stays
// tractable while preserving steady-state behaviour.
var benchScale = harness.Scale{
	Warmup:  5 * time.Second,
	Measure: 15 * time.Second,
	Reps:    1,
}

// runExperiment executes one figure's experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01Motivation(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig05ETLStorm(b *testing.B)         { runExperiment(b, "fig5") }
func BenchmarkFig06ETLQueues(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig07STATSStorm(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig08STATSQueues(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig09LRStorm(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10VSStorm(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11LRFlink(b *testing.B)          { runExperiment(b, "fig11") }
func BenchmarkFig12VSFlink(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFig13TailLatency(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14MultiQuery(b *testing.B)       { runExperiment(b, "fig14") }
func BenchmarkFig15HarenGranularity(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16Blocking(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkFig17ScaleOut(b *testing.B)         { runExperiment(b, "fig17") }
func BenchmarkFig18MultiSPE(b *testing.B)         { runExperiment(b, "fig18") }
func BenchmarkTable1Summary(b *testing.B)         { runExperiment(b, "table1") }

// --- ablations: the simulator design choices of DESIGN.md ---

// lrGapAt measures the Lachesis-QS vs OS throughput gap on the LR query at
// overload for a given machine configuration.
func lrGapAt(b *testing.B, machine simos.Config) float64 {
	b.Helper()
	var tput [2]float64
	for i, sched := range []harness.Scheduler{harness.SchedOS, harness.SchedLachesisQS} {
		s := harness.Setup{
			Name:    string(sched),
			Machine: machine,
			Engines: []harness.EngineSpec{{Flavor: spe.FlavorStorm}},
			Queries: []harness.QuerySpec{{
				Build:  func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
				Source: workloads.LRSource,
			}},
			Scheduler: sched,
			Warmup:    benchScale.Warmup,
			Measure:   benchScale.Measure,
			Seed:      3,
		}
		r, err := harness.Run(s, 6200, 0)
		if err != nil {
			b.Fatal(err)
		}
		tput[i] = r.Throughput
	}
	return tput[1]/tput[0] - 1
}

// BenchmarkAblationSwitchCost sweeps the context-switch cost model: with 0
// cost the simulated OS is perfectly work-conserving and the Lachesis
// throughput gain collapses, showing the gain is rooted in scheduling
// overheads, as on real hardware.
func BenchmarkAblationSwitchCost(b *testing.B) {
	for _, sw := range []time.Duration{0, 10 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond} {
		b.Run(fmt.Sprintf("switch=%v", sw), func(b *testing.B) {
			machine := simos.OdroidXU4()
			machine.SwitchCost = sw
			var gap float64
			for i := 0; i < b.N; i++ {
				gap = lrGapAt(b, machine)
			}
			b.ReportMetric(gap*100, "tput-gain-%")
		})
	}
}

// BenchmarkAblationQuantum sweeps the dispatch timeslice (fidelity vs
// simulation cost).
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		b.Run(fmt.Sprintf("quantum=%v", q), func(b *testing.B) {
			machine := simos.OdroidXU4()
			machine.Quantum = q
			var gap float64
			for i := 0; i < b.N; i++ {
				gap = lrGapAt(b, machine)
			}
			b.ReportMetric(gap*100, "tput-gain-%")
		})
	}
}

// BenchmarkAblationSchedulingPeriod sweeps Lachesis' scheduling period
// (the paper fixes it to the 1s Graphite resolution; §6.1 argues that is
// usually sufficient).
func BenchmarkAblationSchedulingPeriod(b *testing.B) {
	for _, period := range []time.Duration{250 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second} {
		b.Run(fmt.Sprintf("period=%v", period), func(b *testing.B) {
			var proc float64
			for i := 0; i < b.N; i++ {
				s := harness.Setup{
					Name:    "lachesis-qs",
					Machine: simos.OdroidXU4(),
					Engines: []harness.EngineSpec{{Flavor: spe.FlavorStorm}},
					Queries: []harness.QuerySpec{{
						Build:  func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
						Source: workloads.LRSource,
					}},
					Scheduler: harness.SchedLachesisQS,
					Period:    period,
					Warmup:    benchScale.Warmup,
					Measure:   benchScale.Measure,
					Seed:      3,
				}
				r, err := harness.Run(s, 5500, 0)
				if err != nil {
					b.Fatal(err)
				}
				proc = r.MeanProc.Seconds() * 1e3
			}
			b.ReportMetric(proc, "lat-ms")
		})
	}
}

// BenchmarkAblationTranslator compares the OS mechanisms enforcing the
// same QS schedule near the LR saturation point: nice, per-operator
// cpu.shares, CPU quotas, and SCHED_FIFO (the §8 future-work mechanisms).
func BenchmarkAblationTranslator(b *testing.B) {
	for _, tr := range []harness.Translator{
		harness.TranslateNice, harness.TranslateShares,
		harness.TranslateQuota, harness.TranslateRT,
	} {
		b.Run(string(tr), func(b *testing.B) {
			var tput, lat float64
			for i := 0; i < b.N; i++ {
				s := harness.Setup{
					Name:    "lachesis-qs/" + string(tr),
					Machine: simos.OdroidXU4(),
					Engines: []harness.EngineSpec{{Flavor: spe.FlavorStorm}},
					Queries: []harness.QuerySpec{{
						Build:  func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
						Source: workloads.LRSource,
					}},
					Scheduler:  harness.SchedLachesisQS,
					Translator: tr,
					Warmup:     benchScale.Warmup,
					Measure:    benchScale.Measure,
					Seed:       3,
				}
				r, err := harness.Run(s, 5500, 0)
				if err != nil {
					b.Fatal(err)
				}
				tput = r.Throughput
				lat = r.MeanProc.Seconds() * 1e3
			}
			b.ReportMetric(tput, "tput-t/s")
			b.ReportMetric(lat, "lat-ms")
		})
	}
}

// linearizedPolicy forces a policy's schedule to be normalized linearly,
// for the normalization ablation below.
type linearizedPolicy struct{ inner core.Policy }

func (p linearizedPolicy) Name() string      { return p.inner.Name() + "-linear" }
func (p linearizedPolicy) Metrics() []string { return p.inner.Metrics() }
func (p linearizedPolicy) Schedule(v *core.View) (core.Schedule, error) {
	s, err := p.inner.Schedule(v)
	s.Scale = core.ScaleLinear
	return s, err
}

// BenchmarkAblationNormalization compares HR under its proper logarithmic
// normalization (§5.3: "for logarithmically-spaced priorities ... min-max
// normalization on the logarithms") against naive linear min-max, which
// lets one huge priority crush all distinctions.
func BenchmarkAblationNormalization(b *testing.B) {
	run := func(b *testing.B, policy core.Policy) (float64, float64) {
		k := simos.New(simos.OdroidXU4())
		eng, err := spe.New(k, spe.Config{Name: "storm", Flavor: spe.FlavorStorm, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		d, err := eng.Deploy(workloads.VoipStream(), workloads.VSSource(2800, 5))
		if err != nil {
			b.Fatal(err)
		}
		store := metrics.NewStore(time.Second)
		if err := eng.StartReporter(store, time.Second); err != nil {
			b.Fatal(err)
		}
		drv, err := driver.New(eng, store)
		if err != nil {
			b.Fatal(err)
		}
		osa, err := simctl.NewOSAdapter(k)
		if err != nil {
			b.Fatal(err)
		}
		mw := core.NewMiddleware(nil)
		if err := mw.Bind(core.Binding{
			Policy:     policy,
			Translator: core.NewNiceTranslator(osa),
			Drivers:    []core.Driver{drv},
			Period:     time.Second,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := simctl.StartMiddleware(k, mw); err != nil {
			b.Fatal(err)
		}
		k.RunUntil(benchScale.Warmup)
		d.ResetStats()
		base := d.EgressCount()
		k.RunUntil(benchScale.Warmup + benchScale.Measure)
		tput := float64(d.EgressCount()-base) / benchScale.Measure.Seconds()
		return tput, d.Latencies().MeanProc.Seconds() * 1e3
	}
	for _, cfg := range []struct {
		name   string
		policy core.Policy
	}{
		{"hr-log", core.NewHRPolicy()},
		{"hr-linear", linearizedPolicy{core.NewHRPolicy()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var tput, lat float64
			for i := 0; i < b.N; i++ {
				tput, lat = run(b, cfg.policy)
			}
			b.ReportMetric(tput, "egress-t/s")
			b.ReportMetric(lat, "lat-ms")
		})
	}
}

// --- microbenchmarks of the middleware hot paths ---

func BenchmarkKernelDispatch(b *testing.B) {
	k := simos.New(simos.Config{CPUs: 4})
	for i := 0; i < 16; i++ {
		if _, err := k.Spawn("w", simos.RootCgroup, simos.RunnerFunc(
			func(ctx *simos.RunContext, granted time.Duration) simos.Decision {
				return simos.Decision{Used: granted, Action: simos.ActionYield}
			})); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("kernel stalled")
		}
	}
}

func BenchmarkEngineSimulationSecond(b *testing.B) {
	// Cost of simulating one virtual second of the LR query at load.
	k := simos.New(simos.OdroidXU4())
	e, err := spe.New(k, spe.Config{Name: "storm", Flavor: spe.FlavorStorm, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Deploy(workloads.LinearRoad(1), workloads.LRSource(5000, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(time.Duration(i+1) * time.Second)
	}
}

func BenchmarkProviderUpdate(b *testing.B) {
	// Full metric-derivation pass (Algorithm 3) over a 15-operator query.
	k := simos.New(simos.OdroidXU4())
	e, err := spe.New(k, spe.Config{Name: "storm", Flavor: spe.FlavorStorm, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Deploy(workloads.VoipStream(), workloads.VSSource(1000, 1)); err != nil {
		b.Fatal(err)
	}
	store := metrics.NewStore(time.Second)
	if err := e.StartReporter(store, time.Second); err != nil {
		b.Fatal(err)
	}
	drv, err := driver.New(e, store)
	if err != nil {
		b.Fatal(err)
	}
	k.RunUntil(3 * time.Second)
	p := core.NewProvider(nil)
	if err := p.Register(core.MetricQueueSize, core.MetricSelectivity, core.MetricCostMs, core.MetricHeadWaitMs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Update(k.Now(), []core.Driver{drv}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQSPolicySchedule(b *testing.B) {
	view := syntheticView(100)
	pol := core.NewQSPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Schedule(view); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHRPolicySchedule(b *testing.B) {
	view := syntheticView(100)
	pol := core.NewHRPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Schedule(view); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalizeToNice(b *testing.B) {
	prios := make(map[string]float64, 100)
	for i := 0; i < 100; i++ {
		prios[fmt.Sprintf("op%03d", i)] = float64(i * i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NormalizeToNice(prios, core.ScaleLog)
	}
}

// discardOS is an OS chain that accepts every op and does nothing, so
// BenchmarkTranslatorApply prices the translators alone.
type discardOS struct{}

func (discardOS) SetNice(int, int) error       { return nil }
func (discardOS) EnsureCgroup(string) error    { return nil }
func (discardOS) SetShares(string, int) error  { return nil }
func (discardOS) MoveThread(int, string) error { return nil }

// BenchmarkTranslatorApply is one translator apply on a stable key set —
// the steady state of a decision cycle — for each built-in translator at a
// fleet binding's width (4 operators) and lachesisd's (2048): ns/op and
// allocs/op. The shares translator runs per-operator groups, the combined
// one a group per query of four operators.
func BenchmarkTranslatorApply(b *testing.B) {
	for _, n := range []int{4, 2048} {
		ents := make(map[string]core.Entity, n)
		sched := core.Schedule{Scale: core.ScaleLinear, Single: make(map[string]float64, n), Groups: map[string]core.Group{}}
		for i := 0; i < n; i++ {
			name, query := fmt.Sprintf("op%04d", i), fmt.Sprintf("query-q%03d", i/4)
			ents[name] = core.Entity{Name: name, Query: query, Thread: i + 1}
			sched.Single[name] = float64(i * 7 % 13)
			g := sched.Groups[query]
			sched.Groups[query] = core.Group{Priority: 1, Ops: append(g.Ops, name)}
		}
		perOp := core.Schedule{Scale: sched.Scale, Single: sched.Single}
		for _, c := range []struct {
			name  string
			tr    core.Translator
			sched core.Schedule
		}{
			{"nice", core.NewNiceTranslator(discardOS{}), perOp},
			{"shares", core.NewSharesTranslator(discardOS{}, 0, 0), perOp},
			{"combined", core.NewCombinedTranslator(discardOS{}, 0, 0), sched},
		} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				if err := c.tr.Apply(c.sched, ents); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.tr.Apply(c.sched, ents); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkStoreRecord(b *testing.B) {
	s := metrics.NewStore(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(time.Duration(i)*time.Millisecond, "engine.op.queue", float64(i))
	}
}

func BenchmarkBloomAddContains(b *testing.B) {
	f := bloom.NewWithEstimates(1<<20, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
		if !f.Contains(uint64(i)) {
			b.Fatal("false negative")
		}
	}
}

// syntheticView builds a linear 100-operator view for policy benchmarks.
func syntheticView(n int) *core.View {
	ents := make(map[string]core.Entity, n)
	qs := make(core.EntityValues, n)
	costs := make(core.EntityValues, n)
	sels := make(core.EntityValues, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("op%03d", i)
		e := core.Entity{Name: name, Query: "q", Thread: i + 1}
		if i+1 < n {
			e.Downstream = []string{fmt.Sprintf("op%03d", i+1)}
		}
		ents[name] = e
		qs[name] = float64(i % 17)
		costs[name] = 0.1 + float64(i%5)
		sels[name] = 0.5 + float64(i%3)
	}
	return core.NewView(time.Second, ents, map[string]core.EntityValues{
		core.MetricQueueSize:   qs,
		core.MetricCostMs:      costs,
		core.MetricSelectivity: sels,
	})
}
