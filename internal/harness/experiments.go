package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// Scale sizes an experiment run. The paper runs >=10 minutes x >=5
// repetitions on hardware; virtual time lets us default to shorter
// windows with the same steady-state behaviour.
type Scale struct {
	Warmup  time.Duration
	Measure time.Duration
	Reps    int
	// Progress, if set, receives status lines.
	Progress func(string)
	// CSVDir, if set, additionally writes each experiment's aggregated
	// series as CSV files into the directory (for external plotting).
	CSVDir string
	// ArtifactDir, if set, receives machine-readable benchmark artifacts
	// (BENCH_*.json, decision-audit JSONL, Prometheus dumps) from the
	// experiments that produce them.
	ArtifactDir string
}

// QuickScale is sized for test suites and benchmarks.
var QuickScale = Scale{Warmup: 5 * time.Second, Measure: 20 * time.Second, Reps: 1}

// FullScale approximates the paper's measurement windows.
var FullScale = Scale{Warmup: 15 * time.Second, Measure: 60 * time.Second, Reps: 3}

// maybeCSV writes a sweep's series to <CSVDir>/<name>.csv when requested.
func maybeCSV(sc Scale, name string, series []Series) error {
	if sc.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(sc.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	werr := WriteCSV(f, series)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Experiment reproduces one figure or table of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, sc Scale) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: motivation — custom scheduling of LR on an edge device", fig1},
		{"fig5", "Figure 5: ETL in Storm (Odroid): OS vs EdgeWise vs Lachesis-QS", fig5},
		{"fig6", "Figure 6: distributions of input queue sizes in ETL", fig6},
		{"fig7", "Figure 7: STATS in Storm (Odroid)", fig7},
		{"fig8", "Figure 8: distributions of input queue sizes in STATS", fig8},
		{"fig9", "Figure 9: LR in Storm: OS vs RANDOM vs Lachesis-QS", fig9},
		{"fig10", "Figure 10: VS in Storm: OS vs RANDOM vs Lachesis-QS", fig10},
		{"fig11", "Figure 11: LR in Flink", fig11},
		{"fig12", "Figure 12: VS in Flink", fig12},
		{"fig13", "Figure 13: tail latency distributions of LR/VS in Storm/Flink", fig13},
		{"fig14", "Figure 14: multi-query scheduling of SYN in Liebre", fig14},
		{"fig15", "Figure 15: the effect of scheduling granularity on Haren", fig15},
		{"fig16", "Figure 16: the effect of blocking operations on SYN", fig16},
		{"fig17", "Figure 17: scalability study of LR in Storm/Flink (1-4 nodes)", fig17},
		{"fig18", "Figure 18: multi-SPE/query scheduling of LR, VS, SYN (Xeon)", fig18},
		{"table1", "Table 1: summary of configurations and highlights", table1},
		{"chaos", "Chaos: resilience under injected faults — hardened vs unhardened", chaosExp},
		{"overhead", "Overhead: decision-cycle cost per binding count (§6.7 self-cost)", overheadExp},
		{"drift", "Drift: desired-state reconciliation vs fire-and-forget, warm restart", driftExp},
		{"rollout", "Rollout: adversarial policy vs guarded (canary+invariants+watchdog) and unguarded stacks", rolloutExp},
		{"fleet", "Fleet: coordinated rollout across simulated lachesisd agents — cohort containment, coordinator crash", fleetExp},
		{"failover", "Failover: coordinator HA — leader kill mid-wave, standby promotion, split-brain fencing", failoverExp},
		{"traceoverhead", "Trace overhead: decision-cycle cost with and without the span recorder, 256 bindings", traceOverheadExp},
		{"dst", "DST: deterministic simulation — randomized fault schedules, invariant checks, failing-seed shrinking", dstExp},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// singleQuery builds the per-scheduler setups of a single-query Odroid
// experiment.
func singleQuery(flavor spe.Flavor, build func() *spe.LogicalQuery,
	source func(float64, int64) spe.Source, sc Scale, scheds ...Scheduler) []Setup {
	out := make([]Setup, 0, len(scheds))
	for _, sched := range scheds {
		out = append(out, Setup{
			Name:      string(sched),
			Machine:   simos.OdroidXU4(),
			Engines:   []EngineSpec{{Flavor: flavor}},
			Queries:   []QuerySpec{{Build: build, Source: source}},
			Scheduler: sched,
			Warmup:    sc.Warmup,
			Measure:   sc.Measure,
			Seed:      11,
		})
	}
	return out
}

// Rate grids, calibrated to the simulated Odroid so that the default OS
// saturation point falls inside each sweep (see EXPERIMENTS.md).
var (
	etlRates   = []float64{1000, 1200, 1300, 1400, 1500, 1600, 1700}
	statsRates = []float64{200, 280, 320, 340, 360, 400}
	lrRates    = []float64{3000, 4000, 4500, 5000, 5500, 6000, 6500}
	vsRates    = []float64{1500, 2000, 2500, 3000, 3300, 3600}
	synRates   = []float64{150, 250, 350, 420, 480, 550}
)

func fig1(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm,
		func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
		workloads.LRSource, sc, SchedOS, SchedLachesisQS)
	series, err := Sweep(setups, lrRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig1", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 1: LR on an edge device — OS vs custom scheduling", series)
	return nil
}

func fig5(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm, workloads.ETL, workloads.IoTSource, sc,
		SchedOS, SchedEdgeWise, SchedLachesisQS)
	series, err := Sweep(setups, etlRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig5", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 5: performance comparison of ETL in Storm", series)
	return nil
}

func fig6(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm, workloads.ETL, workloads.IoTSource, sc,
		SchedOS, SchedEdgeWise, SchedLachesisQS)
	series, err := Sweep(setups, etlRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig6", series); err != nil {
		return err
	}
	PrintQueueDistributions(w, "Figure 6: distributions of input queue sizes in ETL", series)
	return nil
}

func fig7(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm, workloads.STATS, workloads.IoTSource, sc,
		SchedOS, SchedEdgeWise, SchedLachesisQS)
	series, err := Sweep(setups, statsRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig7", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 7: performance comparison of STATS in Storm", series)
	return nil
}

func fig8(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm, workloads.STATS, workloads.IoTSource, sc,
		SchedOS, SchedEdgeWise, SchedLachesisQS)
	series, err := Sweep(setups, statsRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig8", series); err != nil {
		return err
	}
	PrintQueueDistributions(w, "Figure 8: distributions of input queue sizes in STATS", series)
	return nil
}

func fig9(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm,
		func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
		workloads.LRSource, sc, SchedOS, SchedLachesisRandom, SchedLachesisQS)
	series, err := Sweep(setups, lrRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig9", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 9: performance of LR in Storm", series)
	return nil
}

func fig10(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorStorm, workloads.VoipStream, workloads.VSSource, sc,
		SchedOS, SchedLachesisRandom, SchedLachesisQS)
	series, err := Sweep(setups, vsRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig10", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 10: performance of VS in Storm", series)
	return nil
}

func fig11(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorFlink,
		func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
		workloads.LRSource, sc, SchedOS, SchedLachesisRandom, SchedLachesisQS)
	series, err := Sweep(setups, lrRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig11", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 11: performance of LR in Flink (chaining disabled)", series)
	return nil
}

func fig12(w io.Writer, sc Scale) error {
	setups := singleQuery(spe.FlavorFlink, workloads.VoipStream, workloads.VSSource, sc,
		SchedOS, SchedLachesisRandom, SchedLachesisQS)
	series, err := Sweep(setups, vsRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig12", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 12: performance of VS in Flink", series)
	return nil
}

func fig13(w io.Writer, sc Scale) error {
	cases := []struct {
		title  string
		flavor spe.Flavor
		build  func() *spe.LogicalQuery
		source func(float64, int64) spe.Source
		rate   float64
	}{
		{"LR in Storm", spe.FlavorStorm, func() *spe.LogicalQuery { return workloads.LinearRoad(1) }, workloads.LRSource, 5500},
		{"VS in Storm", spe.FlavorStorm, workloads.VoipStream, workloads.VSSource, 3000},
		{"LR in Flink", spe.FlavorFlink, func() *spe.LogicalQuery { return workloads.LinearRoad(1) }, workloads.LRSource, 5500},
		{"VS in Flink", spe.FlavorFlink, workloads.VoipStream, workloads.VSSource, 3000},
	}
	for _, c := range cases {
		setups := singleQuery(c.flavor, c.build, c.source, sc, SchedOS, SchedLachesisQS)
		series, err := Sweep(setups, []float64{c.rate}, sc.Reps, sc.Progress)
		if err != nil {
			return err
		}
		PrintLatencyDistributions(w, "Figure 13: latency distribution — "+c.title, series, c.rate)
	}
	return nil
}

// synSetups builds the multi-query Liebre setups of §6.4.
func synSetups(sc Scale, blocking bool, scheds []Scheduler, harenPeriod time.Duration) []Setup {
	cfg := workloads.DefaultSyn(23)
	if blocking {
		cfg = workloads.BlockingSyn(23)
	}
	queries := make([]QuerySpec, cfg.Queries)
	for i := range queries {
		idx := i
		queries[i] = QuerySpec{
			Build: func() *spe.LogicalQuery {
				// Rebuild the full set and pick one query, so per-query
				// costs stay identical across schedulers and runs.
				return workloads.SYN(cfg)[idx]
			},
			Source: workloads.SynSource,
		}
	}
	var out []Setup
	for _, sched := range scheds {
		s := Setup{
			Name:        string(sched),
			Machine:     simos.OdroidXU4(),
			Engines:     []EngineSpec{{Flavor: spe.FlavorLiebre}},
			Queries:     queries,
			Scheduler:   sched,
			Translator:  TranslateShares, // per-operator cgroups (>40 ops)
			HarenPeriod: harenPeriod,
			Warmup:      sc.Warmup,
			Measure:     sc.Measure,
			Seed:        23,
		}
		if harenPeriod > 50*time.Millisecond && isHaren(sched) {
			s.Name = string(sched) + "-1000"
		}
		out = append(out, s)
	}
	return out
}

func isHaren(s Scheduler) bool {
	_, ok := harenPolicy(s)
	return ok
}

func fig14(w io.Writer, sc Scale) error {
	setups := synSetups(sc, false, []Scheduler{
		SchedOS,
		SchedLachesisQS, SchedLachesisFCFS, SchedLachesisHR,
		SchedHarenQS, SchedHarenFCFS, SchedHarenHR,
	}, 0)
	series, err := Sweep(setups, synRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig14", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 14: multi-query scheduling of SYN in Liebre (rate is per query)", series)
	return nil
}

func fig15(w io.Writer, sc Scale) error {
	fast := synSetups(sc, false, []Scheduler{SchedHarenFCFS}, 50*time.Millisecond)
	slow := synSetups(sc, false, []Scheduler{SchedHarenFCFS}, time.Second)
	lach := synSetups(sc, false, []Scheduler{SchedLachesisFCFS}, 0)
	setups := append(append(fast, slow...), lach...)
	series, err := Sweep(setups, synRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig15", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 15: the effect of scheduling granularity on Haren (FCFS)", series)
	return nil
}

func fig16(w io.Writer, sc Scale) error {
	setups := synSetups(sc, true, []Scheduler{
		SchedOS, SchedLachesisFCFS, SchedHarenFCFS,
	}, 0)
	series, err := Sweep(setups, synRates, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	if err := maybeCSV(sc, "fig16", series); err != nil {
		return err
	}
	PrintPerformance(w, "Figure 16: the effect of blocking operations on SYN (FCFS)", series)
	return nil
}

func fig17(w io.Writer, sc Scale) error {
	for _, flavor := range []spe.Flavor{spe.FlavorStorm, spe.FlavorFlink} {
		for _, nodes := range []int{1, 2, 4} {
			setups := []Setup{}
			for _, sched := range []Scheduler{SchedOS, SchedLachesisQS} {
				setups = append(setups, Setup{
					Name:    fmt.Sprintf("%s-%dnode", sched, nodes),
					Machine: simos.OdroidXU4(),
					Engines: []EngineSpec{{Flavor: flavor}},
					Queries: []QuerySpec{{
						Build:  func() *spe.LogicalQuery { return workloads.LinearRoad(1) },
						Source: workloads.LRSource,
					}},
					Scheduler: sched,
					Warmup:    sc.Warmup,
					Measure:   sc.Measure,
					Seed:      17,
				})
			}
			rates := make([]float64, 0, len(lrRates))
			for _, r := range lrRates {
				rates = append(rates, r*float64(nodes))
			}
			series, err := SweepScaleOut(setups, rates, nodes, sc.Reps, sc.Progress)
			if err != nil {
				return err
			}
			PrintPerformance(w, fmt.Sprintf(
				"Figure 17: LR scale-out on %s, fission degree %d over %d Odroids (rate is total)",
				flavor, nodes, nodes), series)
		}
	}
	return nil
}

// Empirically determined per-query maximum sustainable rates for the Xeon
// multi-SPE mix (fraction 1.0 of Fig. 18); see EXPERIMENTS.md.
const (
	fig18VSMax  = 2900.0
	fig18LRMax  = 5500.0
	fig18SYNMax = 145.0 // per SYN query
)

func fig18(w io.Writer, sc Scale) error {
	synCfg := workloads.SynConfig{Queries: 21, OpsPerQuery: 5, Seed: 37}
	queries := []QuerySpec{
		{Build: workloads.VoipStream, Source: workloads.VSSource, RateScale: fig18VSMax, Engine: 0},
		{Build: func() *spe.LogicalQuery { return workloads.LinearRoad(1) }, Source: workloads.LRSource, RateScale: fig18LRMax, Engine: 1},
	}
	for i := 0; i < synCfg.Queries; i++ {
		idx := i
		queries = append(queries, QuerySpec{
			Build:     func() *spe.LogicalQuery { return workloads.SYN(synCfg)[idx] },
			Source:    workloads.SynSource,
			RateScale: fig18SYNMax,
			Engine:    2,
		})
	}
	var setups []Setup
	for _, sched := range []Scheduler{SchedOS, SchedLachesisQS} {
		s := Setup{
			Name:    string(sched),
			Machine: simos.XeonServer(),
			Engines: []EngineSpec{
				{Flavor: spe.FlavorStorm},
				{Flavor: spe.FlavorFlink},
				{Flavor: spe.FlavorLiebre},
			},
			Queries:   queries,
			Scheduler: sched,
			Warmup:    sc.Warmup,
			Measure:   sc.Measure,
			Seed:      18,
		}
		if sched == SchedLachesisQS {
			// The paper's multi-dimensional schedule: one cgroup per query
			// with equal shares, QS by nice within each query.
			s.Translator = TranslateCombined
			s.GroupQueries = true
		}
		setups = append(setups, s)
	}
	// The sweep "rate" is the fraction of each query's maximum rate.
	series, err := Sweep(setups, []float64{0.6, 0.8, 1.0}, sc.Reps, sc.Progress)
	if err != nil {
		return err
	}
	PrintPerQuery(w, "Figure 18: multi-SPE/query scheduling of VS (Storm), LR (Flink), SYN x21 (Liebre) on the Xeon server", series)
	return nil
}

func table1(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "# Table 1: summary of configurations and measured highlights")
	type row struct {
		exp      string
		baseline Scheduler
		lachesis Scheduler
		flavor   spe.Flavor
		build    func() *spe.LogicalQuery
		source   func(float64, int64) spe.Source
		rates    []float64
	}
	rows := []row{
		{"single-query ETL (vs EdgeWise)", SchedEdgeWise, SchedLachesisQS, spe.FlavorStorm, workloads.ETL, workloads.IoTSource, etlRates},
		{"single-query LR Storm (vs OS)", SchedOS, SchedLachesisQS, spe.FlavorStorm, func() *spe.LogicalQuery { return workloads.LinearRoad(1) }, workloads.LRSource, lrRates},
		{"single-query VS Storm (vs OS)", SchedOS, SchedLachesisQS, spe.FlavorStorm, workloads.VoipStream, workloads.VSSource, vsRates},
	}
	fmt.Fprintf(w, "%-34s %14s %14s %14s\n", "experiment", "tput-gain", "lat-factor", "e2e-factor")
	for _, r := range rows {
		setups := singleQuery(r.flavor, r.build, r.source, sc, r.baseline, r.lachesis)
		series, err := Sweep(setups, r.rates, sc.Reps, sc.Progress)
		if err != nil {
			return err
		}
		h := Highlights(series[0], series[1])
		fmt.Fprintf(w, "%-34s %13.0f%% %13.0fx %13.0fx\n",
			r.exp, h.ThroughputGain*100, h.LatencyFactor, h.E2EFactor)
	}
	fmt.Fprintln(w)
	return nil
}
