package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one frozen benchmark workload: the shape the program sees,
// how many cycles a second of requested run time buys, and the paper
// configuration its quality phase runs.
type workload struct {
	Name  string
	Why   string
	Shape shape
	// CyclesPerSecond fixes the measured cycle count as a function of
	// -seconds alone (cycles = CyclesPerSecond * seconds), so two commits
	// do identical work and counts repeat exactly. It is tuned once so a
	// run measures for about -seconds on the reference host (one processor
	// of a 2.1 GHz Xeon VM).
	CyclesPerSecond int
	Paper           paperConfig
}

var allWorkloads = []workload{
	{
		Name:            "steady-wide",
		Why:             "fleet width in steady state: provider, policy, translate and coalescer-suppress do the work, few writes pass",
		Shape:           shape{Bindings: 1024, Queries: 1, OpsPerQuery: 4, ShiftEvery: 16},
		CyclesPerSecond: 130, Paper: paperConfig{"etl", 1500},
	},
	{
		Name:            "churn-wide",
		Why:             "same stack, every query shifts every cycle: coalescer pass-through, audit and oslinux writes dominate",
		Shape:           shape{Bindings: 1024, Queries: 1, OpsPerQuery: 4, ShiftEvery: 1},
		CyclesPerSecond: 126, Paper: paperConfig{"etl", 1700},
	},
	{
		Name:            "daemon-deep",
		Why:             "the chain lachesisd ships: one binding, 4096 entities, guard, state log, write queue, real file writes",
		Shape:           shape{Bindings: 1, Queries: 64, OpsPerQuery: 32, ShiftEvery: 8, PerOpCgroups: true, Deep: true},
		CyclesPerSecond: 130, Paper: paperConfig{"linear-road", 6000},
	},
	{
		Name: "fetch-rtt",
		Why:  "wait-dominated: each fetch sleeps 1-3 ms, so only fetch-pool overlap moves the cycle, CPU savings must not",
		Shape: shape{Bindings: 20, Queries: 1, OpsPerQuery: 4, ShiftEvery: 4,
			RTTMin: time.Millisecond, RTTMax: 3 * time.Millisecond},
		CyclesPerSecond: 126, Paper: paperConfig{"linear-road", 5500},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// numBlocks is how many blocks a run's measured cycles are split into.
	numBlocks = 10
	// setupRepeats is how many times a run sets up; it reports the median
	// and measures on the last stack.
	setupRepeats = 3
)

// plan fixes how much a run does.
type plan struct {
	Blocks       int
	BlockCycles  int
	Warmup       int
	SetupRepeats int
	// Budget ends a measured window early once it is spent (see measure);
	// zero never does.
	Budget  time.Duration
	Quality qualityPlan
}

func planFor(wl workload, seconds int) plan {
	return plan{
		Blocks:       numBlocks,
		BlockCycles:  max(wl.CyclesPerSecond*seconds/numBlocks, 1),
		Warmup:       warmupCycles,
		SetupRepeats: setupRepeats,
		// The cycle counts fill -seconds on the quiet reference host: a
		// window's last block starts within -seconds there, so a normal
		// run is not cut short, and a contended host gets fewer blocks.
		Budget:  time.Duration(seconds) * time.Second,
		Quality: paperQuality,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run of one workload produced.
type outcome struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	// Samples is how many samples stand behind each timing.
	Samples map[string]int
	Notes   []string
}

func (o *outcome) set(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }

// setUp generates the inputs, builds the stack (its files, if it has any,
// in a directory of its own under outDir), steps the warm-up cycles and
// collects the garbage all that left: everything a process does before its
// first measured cycle. It returns how long that took in reference-host
// time: the build, every warm-up cycle and the collection are each timed
// with a probe reading on either side and converted like a measured cycle
// (hostFactors); the probes' own time is not part of it.
func setUp(sh shape, seed int64, t *tracer, probe *hostProbe, outDir string, warmup int) (*inputs, *stack, time.Duration, error) {
	segs := make([]segment, 0, warmup+2)
	probes := append(make([]int64, 0, warmup+3), probe.run())
	timed := func(work func() error) error {
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := work(); err != nil {
			return err
		}
		wall := time.Since(start)
		cpu1, err := cpuTime()
		if err != nil {
			return err
		}
		segs = append(segs, segment{WallNs: int64(wall), CPUNs: cpu1 - cpu0})
		probes = append(probes, probe.run())
		return nil
	}

	var in *inputs
	var st *stack
	err := timed(func() error {
		in = newInputs(sh, seed)
		dir, err := scratchDir(sh, outDir)
		if err != nil {
			return err
		}
		st, err = buildStack(in, t, dir) // owns dir from here on, even when it fails
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	for c := 0; c < warmup; c++ {
		if err := timed(func() error { _, err := st.step(c); return err }); err != nil {
			st.close()
			return nil, nil, 0, fmt.Errorf("bench: warm-up cycle %d: %w", c, err)
		}
	}
	if err := timed(func() error { runtime.GC(); return nil }); err != nil {
		st.close()
		return nil, nil, 0, err
	}

	factors, slowdown := make([]float64, len(segs)), make([]float64, len(segs))
	hostFactors(segs, probes, factors, slowdown)
	var took float64
	for i, seg := range segs {
		took += float64(seg.WallNs) * factors[i]
	}
	return in, st, time.Duration(took), nil
}

// scratchDir makes a private directory under outDir for the files of a
// file-backed stack, which removes it when closed; other stacks need none.
func scratchDir(sh shape, outDir string) (string, error) {
	if !sh.Deep {
		return "", nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runUntraced produces the end-to-end metrics of one workload.
func runUntraced(wl workload, seed int64, pl plan, outDir string) (*outcome, error) {
	out := &outcome{Metrics: map[string]metric{}, Samples: map[string]int{}}
	probe := newHostProbe()
	// phases records where the run's own time went, as the host ran it.
	var phases [4]time.Duration
	mark := time.Now()
	lap := func(phase int) {
		phases[phase] = time.Since(mark)
		mark = time.Now()
	}
	var (
		in     *inputs
		st     *stack
		setups []float64
	)
	for i := 0; i < pl.SetupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			// Collect the discarded stack now, outside the timed set-up, so
			// it does not ride along into the next one's memory peak.
			in, st = nil, nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		in, st, took, err = setUp(wl.Shape, seed, nil, probe, outDir, pl.Warmup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer st.close()
	lap(0)

	w, err := measure(st, nil, probe, pl.Warmup, pl.Blocks, pl.BlockCycles, pl.Budget)
	if err != nil {
		return nil, err
	}
	lap(1)
	// Before anything below allocates: the reference stack and the
	// simulator must not count towards the program's memory.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	mismatched, err := verify(in, w.Checkpoints)
	if err != nil {
		return nil, err
	}
	lap(2)

	cycles := float64(w.Cycles)
	const ms = 1e6
	out.set("setup_s", medianOf(setups), "s")
	out.set("cycle_p50_ms", w.overBlocks(func(b *block) float64 { return b.CycleP50 })/ms, "ms")
	out.set("cycle_p95_ms", w.overBlocks(func(b *block) float64 { return b.CycleP95 })/ms, "ms")
	out.set("sample_to_kernel_p50_ms", w.overBlocks(func(b *block) float64 { return b.S2KP50 })/ms, "ms")
	out.set("sample_to_kernel_p95_ms", w.overBlocks(func(b *block) float64 { return b.S2KP95 })/ms, "ms")
	out.set("cpu_ms_per_cycle", w.overBlocks(func(b *block) float64 { return b.CPUNs / float64(b.Cycles) })/ms, "ms")
	out.set("allocs_per_cycle", float64(w.mallocs())/cycles, "count")
	out.set("writes_per_cycle", float64(w.writes())/cycles, "count")
	out.set("peak_rss_mb", rss, "MB")
	out.Samples["setup_s"] = len(setups)
	out.Samples["cycle_p50_ms"], out.Samples["cycle_p95_ms"] = w.Cycles, w.Cycles
	out.Samples["cpu_ms_per_cycle"], out.Samples["allocs_per_cycle"] = w.Cycles, w.Cycles
	out.Samples["sample_to_kernel_p50_ms"] = int(w.writes())
	out.Samples["sample_to_kernel_p95_ms"] = int(w.writes())
	out.Samples["writes_per_cycle"] = int(w.writes())

	q, err := runQuality(wl.Paper, seed, pl.Quality)
	if err != nil {
		return nil, err
	}
	lap(3)
	out.set("latency_gain", q.LatencyGain, "ratio")
	out.set("throughput_gain", q.ThroughputGain, "ratio")
	out.Samples["latency_gain"], out.Samples["throughput_gain"] = pl.Quality.Reps, pl.Quality.Reps

	out.Attempted = w.Attempted
	out.Failed = min(w.Attempted, w.Failed+w.Counters.WriteErrs+mismatched+int64(w.ReconcileDrift))
	if w.FirstErr != "" {
		out.Notes = append(out.Notes, "first Step error: "+w.FirstErr)
	}
	if mismatched > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf("%d binding states differ from the reference stack", mismatched))
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("block medians of the cycle time (ms):%s; max/min %.3f", w.blockMedians(), w.blockSpread()),
		fmt.Sprintf("the host ran the probe %.2f times slower than the reference host (median over blocks; per block:%s)",
			w.overBlocks(func(b *block) float64 { return b.HostSlowdown }), w.blockSlowdowns()),
		fmt.Sprintf("the run spent %.1f s setting up %d times, %.1f s measuring, %.1f s on the reference check, %.1f s in the quality phase",
			phases[0].Seconds(), pl.SetupRepeats, phases[1].Seconds(), phases[2].Seconds(), phases[3].Seconds()))
	return out, nil
}

// runTraced produces the per-layer metrics of one workload. It measures
// the same cycles twice — first on an untraced stack, then on one with a
// recording shim at every stage boundary — and requires both to issue the
// same writes and reach the same kernel table at every block boundary:
// the proof that the shims did not change the path. Each stack runs half
// the blocks of an untraced run, so a traced run takes about as long.
func runTraced(wl workload, seed int64, pl plan, outDir, spanFile string) (*outcome, error) {
	out := &outcome{Metrics: map[string]metric{}, Samples: map[string]int{}}
	blocks := max(pl.Blocks/2, 1)
	sh := wl.Shape
	probe := newHostProbe()

	_, plain, _, err := setUp(sh, seed, nil, probe, outDir, pl.Warmup)
	if err != nil {
		return nil, err
	}
	u, err := measure(plain, nil, probe, pl.Warmup, blocks, pl.BlockCycles, pl.Budget/2)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	t := newTracer(sh, pl.BlockCycles)
	in, st, _, err := setUp(sh, seed, t, probe, outDir, pl.Warmup)
	if err != nil {
		return nil, err
	}
	defer st.close()
	// As many blocks as the untraced stack got through, so both step the
	// same cycles.
	blocks = len(u.Blocks)
	t.startRecording(blocks*pl.BlockCycles, pl.Warmup)
	w, err := measure(st, t, probe, pl.Warmup, blocks, pl.BlockCycles, 0)
	if err != nil {
		return nil, err
	}
	// Telemetry is read only now that the loop has stopped: a scrape
	// concurrent with instrument creation crashes the registry (ROADMAP
	// "Fix first" item 0).
	scrape0 := time.Now()
	if err := st.mw.Telemetry().WritePrometheus(io.Discard); err != nil {
		return nil, err
	}
	scrape := time.Since(scrape0)
	if err := st.close(); err != nil {
		return nil, err
	}

	var diverged int64
	if u.writes() != w.writes() {
		diverged++
		out.Notes = append(out.Notes, fmt.Sprintf("traced stack issued %d writes, untraced %d", w.writes(), u.writes()))
	}
	for i := range w.Checkpoints {
		diverged += int64(w.Checkpoints[i].Table.mismatchedBindings(u.Checkpoints[i].Table, sh))
	}
	mismatched, err := verify(in, w.Checkpoints)
	if err != nil {
		return nil, err
	}

	cycles := float64(w.Cycles)
	const ms = 1e6
	perCycle := func(ns float64) float64 { return ns / cycles / ms }
	// Span time per layer and per phase over the window, in reference-host
	// time: each cycle's share is converted with that cycle's factor.
	var sums [numTraceSums]float64
	for i := range w.Blocks {
		for k, ns := range w.Blocks[i].Sums {
			sums[k] += ns
		}
	}
	total := func(layer int) float64 { return sums[layer] }
	// The stage a translator writes into, the stage a coalescer flushes
	// into, and the stage below the audit wrapper differ between the two
	// chains.
	top, belowCoalesce, belowAudit := layerCoalesce, layerAudit, layerBackend
	if sh.Deep {
		top, belowCoalesce, belowAudit = layerGuard, layerRecord, layerSubmit
	}
	// A coalescer buffers during Apply and works in Flush, which the
	// middleware calls on the concrete type, out of any shim's sight. The
	// middleware's own apply timing (StepStats) brackets Apply, the guard's
	// FinishApply and Flush, so what is left of it is the flush.
	flush := sums[sumApply] - total(layerTranslate) - total(layerGuardFinish)
	_, policyCalls := t.total(layerPolicy)

	out.set("core.fetch_phase_ms", perCycle(sums[sumFetchPhase]), "ms")
	out.set("core.policy_ms", perCycle(total(layerPolicy)), "ms")
	out.set("core.policy_calls", float64(policyCalls)/cycles, "count")
	out.set("core.translate_self_ms", perCycle(total(layerTranslate)-total(top)), "ms")
	out.set("core.coalesce_self_ms", perCycle(total(layerCoalesce)+flush-total(belowCoalesce)), "ms")
	out.set("core.coalesce_issue_ratio", ratio(float64(w.Counters.Issued), float64(w.Counters.Issued+w.Counters.Suppressed)), "ratio")
	out.set("core.audit_self_ms", perCycle(total(layerAudit)-total(belowAudit)), "ms")
	out.set("core.audit_events", float64(w.Counters.AuditEvents)/cycles, "count")
	out.set("core.step_residual_ms", perCycle(sums[sumResidual]), "ms")
	out.set("core.entities_per_s", float64(w.Entities)/(float64(w.WallNs)/1e9), "1/s")
	out.set("guard.opguard_self_ms", 0, "ms")
	out.set("reconcile.record_self_ms", 0, "ms")
	if sh.Deep {
		out.set("guard.opguard_self_ms", perCycle(total(layerGuard)+total(layerGuardFinish)-total(layerCoalesce)), "ms")
		out.set("reconcile.record_self_ms", perCycle(total(layerRecord)-total(layerAudit)), "ms")
	}
	out.set("guard.blocked_batches", float64(t.guardBlocked.Load()), "count")
	out.set("reconcile.pass_ms", medianOf(w.ReconcileNs)/ms, "ms")
	out.set("reconcile.repairs", float64(w.ReconcileDrift), "count")
	out.set("driver.fetch_p50_ms", w.overBlocks(func(b *block) float64 { return b.FetchP50 })/ms, "ms")
	out.set("driver.fetch_concurrency", ratio(total(layerFetch), sums[sumFetchPhase]), "ratio")
	out.set("driver.submit_wait_ms", ratio(sums[sumSubmitWait], float64(t.submitWaits.Load()))/ms, "ms")
	out.set("driver.submit_batch_ops", ratio(float64(w.Counters.QueueOps), float64(w.Counters.Batches)), "count")
	out.set("oslinux.control_self_ms", perCycle(total(layerBackend)-total(layerSystem)), "ms")
	out.set("oslinux.write_p50_us", w.overBlocks(func(b *block) float64 { return b.SysP50 })/1e3, "us")
	out.set("oslinux.nice_ops", float64(w.Counters.Kinds[kindNice])/cycles, "count")
	out.set("oslinux.shares_ops", float64(w.Counters.Kinds[kindShares])/cycles, "count")
	out.set("oslinux.move_ops", float64(w.Counters.Kinds[kindMove])/cycles, "count")
	out.set("oslinux.write_errors", float64(w.Counters.WriteErrs), "count")
	out.set("span.spans_per_cycle", float64(w.Counters.Spans)/cycles, "count")
	out.set("telemetry.scrape_ms", float64(scrape)/ms, "ms")
	out.set("runtime.gc_cycles", float64(w.GCCycles), "count")
	out.set("runtime.gc_pause_ms", float64(w.GCPauseNs)/ms, "ms")
	out.set("runtime.heap_live_mb", w.HeapLiveMB, "MB")
	tracedP50 := w.overBlocks(func(b *block) float64 { return b.CycleP50 })
	out.set("bench.trace_overhead_ratio", ratio(tracedP50, u.overBlocks(func(b *block) float64 { return b.CycleP50 })), "ratio")
	out.set("bench.block_spread", w.blockSpread(), "ratio")
	out.set("bench.host_slowdown", w.overBlocks(func(b *block) float64 { return b.HostSlowdown }), "ratio")
	// The simulator's speed does not need the repetitions the gains do.
	qp := pl.Quality
	qp.Reps = 1
	q, err := runQuality(wl.Paper, seed, qp)
	if err != nil {
		return nil, err
	}
	out.set("simos.vsec_per_wall_s", q.VirtualSeconds/q.WallSeconds, "1/s")
	out.set("spe.tuples_per_wall_s", q.Tuples/q.WallSeconds, "1/s")
	for name := range out.Metrics {
		out.Samples[name] = w.Cycles
	}
	out.Samples["oslinux.write_p50_us"] = int(w.writes())
	out.Samples["reconcile.pass_ms"] = len(w.ReconcileNs)

	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := t.writeSpans(spanFile); err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("writes per cycle: traced %.4f, untraced %.4f", float64(w.writes())/cycles, float64(u.writes())/float64(u.Cycles)),
		fmt.Sprintf("%d spans of every %d. cycle written to %s (%d more did not fit)",
			min(t.nspans.Load(), int64(len(t.spans))), t.stride, spanFile, t.dropped.Load()))

	out.Attempted = w.Attempted
	out.Failed = min(w.Attempted, w.Failed+u.Failed+w.Counters.WriteErrs+mismatched+diverged+int64(w.ReconcileDrift))
	if w.FirstErr != "" {
		out.Notes = append(out.Notes, "first Step error: "+w.FirstErr)
	}
	if mismatched+diverged > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf("%d binding states differ from the reference stack, %d from the untraced stack", mismatched, diverged))
	}
	return out, nil
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errIncorrect marks a run whose outputs failed the correctness check.
var errIncorrect = errors.New("bench: run failed its correctness check")
