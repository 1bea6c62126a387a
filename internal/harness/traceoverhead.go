package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/span"
	"lachesis/internal/stats"
)

// The traceoverhead experiment prices the span layer on the hot path: two
// copies of a 256-binding parallel decision stack over the synthetic
// drivers of scale.go — one with no recorder attached (the single
// nil-pointer test per instrumentation site), one with a full ring
// recorder in production configuration (slow-span floor on, so a healthy
// cycle emits its cycle root, slow fetches, and slow/failed binding
// phases) — do the same work in alternating steps. The acceptance
// bound mirrors the tracing design goal: the traced arm may spend at most
// traceMaxRatio times the CPU of the untraced one.
//
// What is compared is process CPU time over fixed work: each step of the
// traced arm against the same step of the untraced arm, run back to back,
// and the verdict is the median of those paired ratios. A cycle of these
// stacks is dominated by a slept fetch latency, so its wall time is mostly
// the host's timer and scheduler: an A/A control (both arms untraced) read
// 0.88–1.13 on a pooled wall p95 and 0.95–1.04 on a median of paired wall
// ratios, neither of which resolves a 1.05 bound, and both degrade when
// the cycle's own CPU share shrinks. CPU time does not see the sleeps or a
// busy neighbour. The median, rather than the ratio of the arms' sums, is
// for the host's rare long stalls: one step charged 250 ms instead of 4
// moved a ratio of sums over 320 steps to 1.19. The sums and the wall
// percentiles stay in the report as context, not as the verdict.
//
// Alternation is the other half: the arms take turns step by step,
// swapping which goes first, so machine-level drift (a shared host's
// sibling hyperthread going busy makes the same work cost 1.3-1.5x the CPU
// time for seconds at a stretch) lands on both symmetrically. Coarser
// turns do worse: in blocks of eight steps the same 160 measured steps
// per arm spread the A/A ratio over 0.92-1.04 here, step by step over
// 0.99-1.02.
//
// The traced run also closes the histogram->trace loop: the step-seconds
// p99 bucket must carry an exemplar naming a trace the recorder actually
// holds, so a tail outlier in /metrics leads straight to its span tree.

const (
	traceBindings = 256
	// traceMaxRatio is the acceptance bound on cpu(on)/cpu(off).
	traceMaxRatio = 1.05
	// traceMinReps: even quick scale runs this many paired repetitions, so
	// the sums draw on fresh stacks more than once.
	traceMinReps = 4
	// traceMinMeasure: measured steps per repetition, floor. One step's CPU
	// time varies by about 12 % between the arms of a pair on a shared
	// host, so 4 x 80 pairs put the ratio's standard error under 1 %: an
	// A/A control stays inside 1 +- 0.03 and the ~1.02 of the real
	// recorder stays three standard errors below the bound.
	traceMinMeasure = 80
)

// TraceOverheadReport is the BENCH_trace.json document.
type TraceOverheadReport struct {
	Experiment   string `json:"experiment"`
	Bindings     int    `json:"bindings"`
	Reps         int    `json:"reps"`
	WarmupSteps  int    `json:"warmup_steps"`
	MeasureSteps int    `json:"measure_steps"`
	// Process CPU time per mode (ns), summed over every measured step of
	// every repetition, and RatioCPU: the median over those steps of the
	// traced arm's CPU time over the untraced arm's for the same step.
	// Accepted iff RatioCPU <= MaxRatio.
	OffCPUNs int64   `json:"off_cpu_ns"`
	OnCPUNs  int64   `json:"on_cpu_ns"`
	RatioCPU float64 `json:"ratio_cpu"`
	// Cycle wall-time percentiles per mode (ns), pooled across repetitions,
	// and RatioP95 = OnP95Ns/OffP95Ns: context only (see the note atop
	// traceoverhead.go).
	OffP50Ns int64   `json:"off_p50_ns"`
	OffP95Ns int64   `json:"off_p95_ns"`
	OnP50Ns  int64   `json:"on_p50_ns"`
	OnP95Ns  int64   `json:"on_p95_ns"`
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

// traceRun is one arm: a stack (rec nil = untraced) and, per measured
// step, its wall duration and the process CPU time it took.
type traceRun struct {
	mw   *core.Middleware
	rec  *span.Recorder
	durs []time.Duration
	cpus []time.Duration
}

// percentile reads p from sorted durations (index (n-1)*p/100).
func percentile(sorted []time.Duration, p int) time.Duration {
	return sorted[(len(sorted)-1)*p/100]
}

// processCPU is the CPU time (user + system) the process has used so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// buildTraceStack builds one 256-binding parallel stack (synthetic
// drivers: modeled fetch round trip, coalesced writes). A non-nil rec is
// attached in production configuration.
func buildTraceStack(n, warmupSteps int, rec *span.Recorder) (*traceRun, error) {
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
			return nil, fmt.Errorf("bind %s: %w", drv.name, err)
		}
	}
	if rec != nil {
		mw.SetSpans(rec)
		// Production configuration, as the daemons run it: leaf phase spans
		// gated by the slow-span floor (slow or failed phases still emit)
		// and per-cycle emission bounded by the span budget.
		mw.SetSpanFloor(core.DefaultSpanFloor)
		mw.SetSpanBudget(core.DefaultSpanBudget)
	}
	return &traceRun{mw: mw, rec: rec}, nil
}

// step runs the arm's step s; a measured one adds its wall duration and
// the process CPU time it took to the arm's record.
func (r *traceRun) step(s int, measured bool) error {
	c0, err := processCPU()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := r.mw.Step(time.Duration(s) * scalePeriod); err != nil {
		return fmt.Errorf("step %d: %w", s, err)
	}
	wall := time.Since(t0)
	c1, err := processCPU()
	if measured {
		r.durs = append(r.durs, wall)
		r.cpus = append(r.cpus, c1-c0)
	}
	return err
}

// runTraceArms steps two arms through the same virtual time, taking turns
// step by step (see the methodology note atop this file): the warmup
// unmeasured, then measureSteps measured. flip swaps which arm leads the
// even steps.
func runTraceArms(a, b *traceRun, warmupSteps, measureSteps int, flip bool) error {
	for s := 0; s < warmupSteps+measureSteps; s++ {
		first, second := a, b
		if (s%2 == 1) != flip {
			first, second = b, a
		}
		for _, r := range []*traceRun{first, second} {
			if err := r.step(s, s >= warmupSteps); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceTotals is what the arms of every repetition add up to: per-step CPU
// times in step order (offCPUs[i] and onCPUs[i] are one pair), and the
// wall durations, sorted.
type traceTotals struct {
	offCPUs, onCPUs []time.Duration
	offDurs, onDurs []time.Duration
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// ratioCPU is the verdict statistic: the median of the paired per-step CPU
// ratios, second arm over first.
func (t traceTotals) ratioCPU() float64 {
	ratios := make([]float64, len(t.offCPUs))
	for i := range ratios {
		ratios[i] = float64(t.onCPUs[i]) / float64(t.offCPUs[i])
	}
	median, _ := stats.Quantile(ratios, 0.5) // never empty: at least traceMinMeasure pairs
	return median
}

// runTraceReps builds a fresh pair of arms per repetition (build returns
// the baseline arm first), runs them against each other and sums up.
// afterRep, when set, sees each repetition's second arm before it is torn
// down.
func runTraceReps(reps, warmupSteps, measureSteps int, build func(rep int) (off, on *traceRun, err error), afterRep func(on *traceRun)) (traceTotals, error) {
	var tot traceTotals
	for rep := 0; rep < reps; rep++ {
		off, on, err := build(rep)
		if err != nil {
			return tot, err
		}
		err = runTraceArms(off, on, warmupSteps, measureSteps, rep%2 == 1)
		if err == nil && afterRep != nil {
			afterRep(on)
		}
		off.mw.Close()
		on.mw.Close()
		if err != nil {
			return tot, err
		}
		tot.offCPUs = append(tot.offCPUs, off.cpus...)
		tot.onCPUs = append(tot.onCPUs, on.cpus...)
		tot.offDurs = append(tot.offDurs, off.durs...)
		tot.onDurs = append(tot.onDurs, on.durs...)
	}
	sort.Slice(tot.offDurs, func(i, j int) bool { return tot.offDurs[i] < tot.offDurs[j] })
	sort.Slice(tot.onDurs, func(i, j int) bool { return tot.onDurs[i] < tot.onDurs[j] })
	return tot, nil
}

// traceOverheadExp runs the alternating comparison and emits
// BENCH_trace.json.
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

	build := func(rep int) (*traceRun, *traceRun, error) {
		if sc.Progress != nil {
			sc.Progress(fmt.Sprintf("traceoverhead: rep %d/%d, %d bindings, off/on step by step", rep+1, reps, traceBindings))
		}
		off, err := buildTraceStack(traceBindings, warmup, nil)
		if err != nil {
			return nil, nil, err
		}
		// Ring-only recorder: the capacity comfortably exceeds one cycle's
		// span tree, which is what the flight recorder needs in production.
		on, err := buildTraceStack(traceBindings, warmup, span.New(span.Config{Process: "bench", Seed: uint64(1000 + rep)}))
		return off, on, err
	}
	tot, err := runTraceReps(reps, warmup, measure, build, func(on *traceRun) {
		report.SpansPerCycle = float64(on.rec.Total()) / float64(warmup+measure)
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
	})
	if err != nil {
		return err
	}
	offP50, offP95 := percentile(tot.offDurs, 50), percentile(tot.offDurs, 95)
	onP50, onP95 := percentile(tot.onDurs, 50), percentile(tot.onDurs, 95)
	report.OffP50Ns, report.OffP95Ns = offP50.Nanoseconds(), offP95.Nanoseconds()
	report.OnP50Ns, report.OnP95Ns = onP50.Nanoseconds(), onP95.Nanoseconds()
	report.RatioP95 = float64(onP95) / float64(offP95)
	offCPU, onCPU := sum(tot.offCPUs), sum(tot.onCPUs)
	report.OffCPUNs, report.OnCPUNs = offCPU.Nanoseconds(), onCPU.Nanoseconds()
	report.RatioCPU = tot.ratioCPU()
	report.Accepted = report.RatioCPU <= traceMaxRatio

	fmt.Fprintln(w, "# Trace overhead: cycle cost with and without the span recorder")
	fmt.Fprintf(w, "%10s %6s %12s %12s %9s %12s %12s %9s %9s\n",
		"bindings", "reps", "off-cpu", "on-cpu", "cpu-ratio", "off-p95", "on-p95", "p95-ratio", "accepted")
	fmt.Fprintf(w, "%10d %6d %12v %12v %8.3fx %12v %12v %8.3fx %9v\n",
		report.Bindings, report.Reps, offCPU, onCPU, report.RatioCPU,
		offP95, onP95, report.RatioP95, report.Accepted)
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
		return fmt.Errorf("traceoverhead: CPU ratio %.3f exceeds %.2f (off %v, on %v over %d steps each)",
			report.RatioCPU, traceMaxRatio, offCPU, onCPU, reps*measure)
	}
	return nil
}
