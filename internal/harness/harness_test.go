package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/stats"
)

func tinySetup(sched Scheduler) Setup {
	return Setup{
		Name:    string(sched),
		Machine: simos.Config{CPUs: 2},
		Engines: []EngineSpec{{Flavor: spe.FlavorStorm}},
		Queries: []QuerySpec{{
			Build: func() *spe.LogicalQuery {
				q := spe.NewQuery("t")
				q.MustAddOp(&spe.LogicalOp{Name: "src", Kind: spe.KindIngress, Cost: 10 * time.Microsecond, Selectivity: 1})
				q.MustAddOp(&spe.LogicalOp{Name: "work", Cost: 200 * time.Microsecond, Selectivity: 1})
				q.MustAddOp(&spe.LogicalOp{Name: "sink", Kind: spe.KindEgress, Cost: 10 * time.Microsecond})
				if err := q.Pipeline("src", "work", "sink"); err != nil {
					panic(err)
				}
				return q
			},
			Source: func(rate float64, seed int64) spe.Source { return spe.NewRateSource(rate, nil) },
		}},
		Scheduler: sched,
		Warmup:    2 * time.Second,
		Measure:   8 * time.Second,
		Seed:      1,
	}
}

func TestRunProducesMeasurements(t *testing.T) {
	r, err := Run(tinySetup(SchedOS), 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 480 || r.Throughput > 520 {
		t.Errorf("throughput = %v, want ~500", r.Throughput)
	}
	if r.MeanProc <= 0 || r.MeanE2E < r.MeanProc {
		t.Errorf("latencies wrong: proc=%v e2e=%v", r.MeanProc, r.MeanE2E)
	}
	if len(r.ProcSamples) == 0 {
		t.Error("no latency samples")
	}
	if r.CPUUtil <= 0 || r.CPUUtil > 1 {
		t.Errorf("cpu util = %v", r.CPUUtil)
	}
	if len(r.QueueSamples) == 0 {
		t.Error("no queue samples")
	}
	// Ingress queue samples must be excluded.
	for name := range r.QueueSamples {
		if strings.Contains(name, "src") {
			t.Errorf("ingress %s sampled into queue distributions", name)
		}
	}
}

func TestRunWithLachesisTracksMiddlewareCPU(t *testing.T) {
	r, err := Run(tinySetup(SchedLachesisQS), 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MWCPUFrac <= 0 || r.MWCPUFrac > 0.05 {
		t.Errorf("middleware CPU fraction = %v, want (0, 5%%]", r.MWCPUFrac)
	}
}

func TestSetupValidation(t *testing.T) {
	s := tinySetup(SchedOS)
	s.Queries = nil
	if _, err := Run(s, 100, 0); err == nil {
		t.Error("no queries should fail")
	}
	s = tinySetup(SchedEdgeWise)
	s.Engines = []EngineSpec{{Flavor: spe.FlavorStorm}, {Flavor: spe.FlavorFlink}}
	s.Queries = append(s.Queries, QuerySpec{
		Build:  s.Queries[0].Build,
		Source: s.Queries[0].Source,
		Engine: 1,
	})
	if _, err := Run(s, 100, 0); err == nil {
		t.Error("UL-SS with two engines should fail")
	}
	s = tinySetup(SchedOS)
	s.Queries[0].Engine = 5
	if _, err := Run(s, 100, 0); err == nil {
		t.Error("bad engine index should fail")
	}
	s = tinySetup(SchedLachesisQS)
	s.Translator = "bogus"
	if _, err := Run(s, 100, 0); err == nil {
		t.Error("unknown translator should fail")
	}
}

func TestSweepAggregatesReps(t *testing.T) {
	series, err := Sweep([]Setup{tinySetup(SchedOS)}, []float64{300, 600}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("series shape wrong")
	}
	p := series[0].Points[0]
	if len(p.Reps) != 2 {
		t.Errorf("reps = %d, want 2", len(p.Reps))
	}
	if p.Throughput.N != 2 {
		t.Errorf("summary N = %d", p.Throughput.N)
	}
}

func TestRunScaleOutMerges(t *testing.T) {
	single, err := Run(tinySetup(SchedOS), 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := RunScaleOut(tinySetup(SchedOS), 800, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes at 400 each ~= twice the single throughput.
	if merged.Throughput < 1.9*single.Throughput || merged.Throughput > 2.1*single.Throughput {
		t.Errorf("merged throughput = %v, single = %v", merged.Throughput, single.Throughput)
	}
	if merged.CPUUtil > 1 {
		t.Errorf("merged util = %v", merged.CPUUtil)
	}
}

func TestHighlights(t *testing.T) {
	mk := func(name string, tput, lat float64) Series {
		return Series{
			Setup: Setup{Name: name},
			Points: []Point{{
				Rate:       100,
				Throughput: summaryOf(tput),
				ProcMs:     summaryOf(lat),
				E2EMs:      summaryOf(lat * 2),
			}},
		}
	}
	h := Highlights(mk("os", 100, 50), mk("lachesis", 130, 5))
	if h.ThroughputGain < 0.29 || h.ThroughputGain > 0.31 {
		t.Errorf("gain = %v, want 0.3", h.ThroughputGain)
	}
	if h.LatencyFactor != 10 {
		t.Errorf("latency factor = %v, want 10", h.LatencyFactor)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Errorf("experiments = %d, want 24", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("fig9"); !ok {
		t.Error("fig9 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestPrintersProduceTables(t *testing.T) {
	series, err := Sweep(
		[]Setup{tinySetup(SchedOS), tinySetup(SchedLachesisQS)},
		[]float64{400}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintPerformance(&buf, "T", series)
	PrintLatencyDistributions(&buf, "T", series, 400)
	PrintQueueDistributions(&buf, "T", series)
	PrintPerQuery(&buf, "T", series)
	out := buf.String()
	for _, want := range []string{"tput(t/s)", "p99.9(ms)", "letter-values", "worst-op-mean", "os", "lachesis-qs"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}

func TestRunLive(t *testing.T) {
	var buf bytes.Buffer
	if err := RunLive(tinySetup(SchedLachesisQS), 400, 3*time.Second, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ingested/s") || !strings.Contains(buf.String(), "query t") {
		t.Errorf("live output unexpected:\n%s", buf.String())
	}
}

func summaryOf(v float64) (s stats.Summary) {
	s.Mean = v
	s.N = 1
	return s
}

func TestFormatDuration(t *testing.T) {
	tests := map[time.Duration]string{
		2500 * time.Millisecond: "2.50s",
		42 * time.Millisecond:   "42.00ms",
		750 * time.Microsecond:  "750us",
	}
	for d, want := range tests {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// The whole stack — kernel, engine, reporter, store, driver, provider,
	// policy, translator — must reproduce bit-for-bit from a seed.
	run := func() Result {
		r, err := Run(tinySetup(SchedLachesisQS), 700, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput {
		t.Errorf("throughput differs: %v vs %v", a.Throughput, b.Throughput)
	}
	if a.MeanProc != b.MeanProc || a.MeanE2E != b.MeanE2E {
		t.Errorf("latency differs: (%v,%v) vs (%v,%v)", a.MeanProc, a.MeanE2E, b.MeanProc, b.MeanE2E)
	}
	if a.QSGoal != b.QSGoal || a.Switches != b.Switches {
		t.Errorf("goal/switches differ: (%v,%d) vs (%v,%d)", a.QSGoal, a.Switches, b.QSGoal, b.Switches)
	}
	if len(a.ProcSamples) != len(b.ProcSamples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.ProcSamples), len(b.ProcSamples))
	}
	for i := range a.ProcSamples {
		if a.ProcSamples[i] != b.ProcSamples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.ProcSamples[i], b.ProcSamples[i])
		}
	}
	// Note: the tiny pipeline is fully deterministic (no jitter, no
	// blocking), so repetition seeds cannot change its results; seed
	// perturbation effects are covered by the SYN workload tests.
}
