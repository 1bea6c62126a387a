package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/span"
)

// The traceoverhead experiment prices the span layer on the hot path: two
// copies of a 256-binding parallel decision stack over the synthetic
// drivers of scale.go — one with no recorder attached (the single
// nil-pointer test per instrumentation site), one with a full ring
// recorder in production configuration (slow-span floor on, so a healthy
// cycle emits its cycle root, slow fetches, and slow/failed binding
// phases) — are stepped on the host clock in interleaved pairs. The acceptance bound mirrors the
// tracing design goal: tracing-on cycle p95 must stay within
// traceMaxRatio of tracing-off.
//
// Pairing is the load-bearing methodology: every measured step times the
// untraced stack and the traced stack back to back, alternating which
// goes first, so machine-level noise (CPU throttling on shared hosts,
// scheduler interference, runtime GC) lands on both modes symmetrically.
// Measuring the modes as two whole sequential runs instead charges
// whichever run executes later with the host's accumulated throttling —
// observed as a spurious 1.3-1.5x "overhead" that flips sign when the
// run order flips. Percentiles are then computed over the POOL of all
// repetitions' paired samples: a per-rep p95 of ~20 steps is the second-
// worst sample and one scheduler hiccup wide, while the pooled tail is
// estimated from every step both modes walked through together.
//
// The traced run also closes the histogram->trace loop: the step-seconds
// p99 bucket must carry an exemplar naming a trace the recorder actually
// holds, so a tail outlier in /metrics leads straight to its span tree.

const (
	traceBindings = 256
	// traceMaxRatio is the acceptance bound on p95(on)/p95(off).
	traceMaxRatio = 1.05
	// traceMinReps: even quick scale runs this many paired repetitions, so
	// the pooled percentiles draw on fresh stacks more than once.
	traceMinReps = 4
	// traceMinMeasure: measured steps per repetition, floor. A p95 over
	// fewer pooled samples is one scheduler hiccup wide — quick scale's
	// default 20-step window repeatedly read a 1.05-1.11x "ratio" on a
	// throttled host where a 180-sample pool read 1.00x.
	traceMinMeasure = 40
)

// TraceOverheadReport is the BENCH_trace.json document.
type TraceOverheadReport struct {
	Experiment   string `json:"experiment"`
	Bindings     int    `json:"bindings"`
	Reps         int    `json:"reps"`
	WarmupSteps  int    `json:"warmup_steps"`
	MeasureSteps int    `json:"measure_steps"`
	// Cycle cost percentiles per mode (ns), pooled across repetitions.
	OffP50Ns int64 `json:"off_p50_ns"`
	OffP95Ns int64 `json:"off_p95_ns"`
	OnP50Ns  int64 `json:"on_p50_ns"`
	OnP95Ns  int64 `json:"on_p95_ns"`
	// RatioP95 = OnP95Ns/OffP95Ns, accepted iff <= MaxRatio.
	RatioP95 float64 `json:"ratio_p95"`
	MaxRatio float64 `json:"max_ratio"`
	Accepted bool    `json:"accepted"`
	// SpansPerCycle is the traced run's recorded spans per decision cycle.
	SpansPerCycle float64 `json:"spans_per_cycle"`
	// P99ExemplarTrace is the trace ID the step-seconds p99 bucket names;
	// ExemplarLinked reports that the recorder holds spans for it.
	P99ExemplarTrace string `json:"p99_exemplar_trace"`
	ExemplarLinked   bool   `json:"exemplar_linked"`
}

// traceRun is one measured stack: sorted cycle durations plus the traced
// stack's recorder and telemetry for the exemplar check.
type traceRun struct {
	durs  []time.Duration
	rec   *span.Recorder
	steps int
	mw    *core.Middleware
}

// percentile reads p from sorted durations (index (n-1)*p/100).
func (t traceRun) percentile(p int) time.Duration {
	return t.durs[(len(t.durs)-1)*p/100]
}

// buildTraceStack builds one 256-binding parallel stack (synthetic
// drivers: modeled fetch round trip, coalesced writes), optionally with a
// production-configured recorder attached.
func buildTraceStack(n, warmupSteps int, traced bool, seed uint64) (traceRun, error) {
	mw := core.NewMiddleware(nil)
	cnt := &scaleCountingOS{}
	warmup := time.Duration(warmupSteps) * scalePeriod
	mw.SetParallelism(core.Parallelism{
		FetchWorkers: scaleFetchWorkers,
	})
	mw.SetWriteGate(core.NewDriverGate())
	for i := 0; i < n; i++ {
		drv := newScaleDriver(i, warmup, scaleFetchLatency)
		co := core.NewCoalescer(cnt, nil)
		if err := mw.Bind(core.Binding{
			Policy:     core.GroupPerQuery(core.NewQSPolicy()),
			Translator: core.NewCombinedTranslator(co, 0, 0),
			Drivers:    []core.Driver{drv},
			Coalescer:  co,
			Period:     scalePeriod,
		}); err != nil {
			return traceRun{}, fmt.Errorf("bind %s: %w", drv.name, err)
		}
	}
	run := traceRun{mw: mw}
	if traced {
		// Ring-only recorder: the capacity comfortably exceeds one cycle's
		// span tree, which is what the flight recorder needs in production.
		run.rec = span.New(span.Config{Process: "bench", Seed: seed})
		mw.SetSpans(run.rec)
		// Production configuration, as the daemons run it: leaf phase spans
		// gated by the slow-span floor (slow or failed phases still emit)
		// and per-cycle emission bounded by the span budget.
		mw.SetSpanFloor(core.DefaultSpanFloor)
		mw.SetSpanBudget(core.DefaultSpanBudget)
	}
	return run, nil
}

// runTraceOverhead builds both stacks and steps them in interleaved
// pairs, returning the untraced and traced runs with their sorted
// measured cycle durations (see the methodology note atop this file).
func runTraceOverhead(n, warmupSteps, measureSteps int, seed uint64) (traceRun, traceRun, error) {
	off, err := buildTraceStack(n, warmupSteps, false, 0)
	if err != nil {
		return traceRun{}, traceRun{}, err
	}
	on, err := buildTraceStack(n, warmupSteps, true, seed)
	if err != nil {
		return traceRun{}, traceRun{}, err
	}
	off.steps, on.steps = measureSteps, measureSteps
	step := func(r *traceRun, s int) error {
		t0 := time.Now()
		if _, err := r.mw.Step(time.Duration(s) * scalePeriod); err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		if s >= warmupSteps {
			r.durs = append(r.durs, time.Since(t0))
		}
		return nil
	}
	off.durs = make([]time.Duration, 0, measureSteps)
	on.durs = make([]time.Duration, 0, measureSteps)
	for s := 0; s < warmupSteps+measureSteps; s++ {
		first, second := &off, &on
		if s%2 == 1 {
			first, second = &on, &off
		}
		if err := step(first, s); err != nil {
			return traceRun{}, traceRun{}, err
		}
		if err := step(second, s); err != nil {
			return traceRun{}, traceRun{}, err
		}
	}
	sort.Slice(off.durs, func(i, j int) bool { return off.durs[i] < off.durs[j] })
	sort.Slice(on.durs, func(i, j int) bool { return on.durs[i] < on.durs[j] })
	return off, on, nil
}

// traceOverheadExp runs the interleaved sweep and emits BENCH_trace.json.
func traceOverheadExp(w io.Writer, sc Scale) error {
	warmup, measure := scaleSteps(sc)
	if measure < traceMinMeasure {
		measure = traceMinMeasure
	}
	reps := sc.Reps
	if reps < traceMinReps {
		reps = traceMinReps
	}
	report := TraceOverheadReport{
		Experiment: "traceoverhead", Bindings: traceBindings, Reps: reps,
		WarmupSteps: warmup, MeasureSteps: measure, MaxRatio: traceMaxRatio,
	}

	var offAll, onAll []time.Duration
	var lastTraced traceRun
	for rep := 0; rep < reps; rep++ {
		if sc.Progress != nil {
			sc.Progress(fmt.Sprintf("traceoverhead: rep %d/%d, %d bindings paired off/on", rep+1, reps, traceBindings))
		}
		off, on, err := runTraceOverhead(traceBindings, warmup, measure, uint64(1000+rep))
		if err != nil {
			return err
		}
		offAll = append(offAll, off.durs...)
		onAll = append(onAll, on.durs...)
		lastTraced = on
		// Histogram->span link, checked per repetition while the rep's
		// traces are still in the ring: the step-seconds p99 bucket must
		// carry an exemplar naming a trace the recorder holds. (The ring is
		// bounded, so checking only after all reps would race eviction.)
		if ex, ok := on.mw.Telemetry().Histogram(core.MetricStepSeconds).Exemplar(0.99); ok {
			report.P99ExemplarTrace = ex
			if len(on.rec.TraceSpans(ex)) > 0 {
				report.ExemplarLinked = true
			}
		}
	}
	sort.Slice(offAll, func(i, j int) bool { return offAll[i] < offAll[j] })
	sort.Slice(onAll, func(i, j int) bool { return onAll[i] < onAll[j] })
	offPool := traceRun{durs: offAll}
	onPool := traceRun{durs: onAll}
	offP50, offP95 := offPool.percentile(50), offPool.percentile(95)
	onP50, onP95 := onPool.percentile(50), onPool.percentile(95)
	report.OffP50Ns, report.OffP95Ns = offP50.Nanoseconds(), offP95.Nanoseconds()
	report.OnP50Ns, report.OnP95Ns = onP50.Nanoseconds(), onP95.Nanoseconds()
	report.RatioP95 = float64(onP95) / float64(offP95)
	report.Accepted = report.RatioP95 <= traceMaxRatio
	report.SpansPerCycle = float64(lastTraced.rec.Total()) / float64(warmup+lastTraced.steps)

	fmt.Fprintln(w, "# Trace overhead: cycle cost with and without the span recorder")
	fmt.Fprintf(w, "%10s %6s %12s %12s %12s %12s %8s %9s\n",
		"bindings", "reps", "off-p50", "off-p95", "on-p50", "on-p95", "ratio", "accepted")
	fmt.Fprintf(w, "%10d %6d %12v %12v %12v %12v %7.3fx %9v\n",
		report.Bindings, report.Reps, offP50, offP95, onP50, onP95,
		report.RatioP95, report.Accepted)
	fmt.Fprintf(w, "spans/cycle: %.0f   p99 exemplar: %s (linked=%v)\n\n",
		report.SpansPerCycle, report.P99ExemplarTrace, report.ExemplarLinked)

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_trace.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	if !report.Accepted {
		return fmt.Errorf("traceoverhead: p95 ratio %.3f exceeds %.2f (off %v, on %v)",
			report.RatioP95, traceMaxRatio, offP95, onP95)
	}
	return nil
}
