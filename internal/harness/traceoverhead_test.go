package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lachesis/internal/span"
)

// TestTraceOverheadExperiment runs the traceoverhead experiment at quick
// scale and checks its acceptance contract: the BENCH_trace.json
// artifact reports the traced arm's CPU time within the 1.05x bound of
// the untraced arm's at 256 bindings, and the step-latency histogram's p99
// exemplar names a trace the span ring actually held.
func TestTraceOverheadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("host-clock benchmark")
	}
	sc := QuickScale
	sc.ArtifactDir = t.TempDir()
	var out bytes.Buffer
	if err := traceOverheadExp(&out, sc); err != nil {
		t.Fatalf("traceoverhead: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(sc.ArtifactDir, "BENCH_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep TraceOverheadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	t.Logf("on/off CPU ratio %.3f, wall p95 ratio %.3f", rep.RatioCPU, rep.RatioP95)
	if !rep.Accepted || rep.RatioCPU > rep.MaxRatio {
		t.Errorf("report not accepted: CPU ratio %.3f max %.2f", rep.RatioCPU, rep.MaxRatio)
	}
	if rep.Bindings != traceBindings || rep.OffCPUNs <= 0 || rep.OnCPUNs <= 0 || rep.OffP95Ns <= 0 || rep.OnP95Ns <= 0 {
		t.Errorf("implausible report: %+v", rep)
	}
	if rep.P99ExemplarTrace == "" || !rep.ExemplarLinked {
		t.Errorf("p99 exemplar not linked to a recorded trace: %q (linked=%v)",
			rep.P99ExemplarTrace, rep.ExemplarLinked)
	}
}

// traceControl runs the experiment's protocol, at half its quick-scale
// repetitions, over an untraced arm and an arm with the caller's recorder.
func traceControl(t *testing.T, onRecorder func(rep int) *span.Recorder) traceTotals {
	t.Helper()
	warmup, _ := scaleSteps(QuickScale)
	tot, err := runTraceReps(traceMinReps/2, warmup, traceMinMeasure, func(rep int) (*traceRun, *traceRun, error) {
		off, err := buildTraceStack(traceBindings, warmup, nil)
		if err != nil {
			return nil, nil, err
		}
		on, err := buildTraceStack(traceBindings, warmup, onRecorder(rep))
		return off, on, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tot
}

// burnSink is a span sink that spends a fixed amount of CPU on every cycle
// span: a recorder made slower on purpose.
type burnSink struct{ perCycle time.Duration }

func (s burnSink) Emit(sp span.Span) {
	if sp.Name != "cycle" {
		return
	}
	for t0 := time.Now(); time.Since(t0) < s.perCycle; {
	}
}

// TestTraceOverheadProtocolResolvesTheBound pins what the verdict rests
// on. An A/A control — no recorder on either arm — must read 1, well
// inside the bound the experiment polices: a protocol that cannot do that
// cannot tell 1.05 from noise. And it must have teeth: a recorder that
// costs a tenth of a cycle's CPU more than it should breaks the bound.
func TestTraceOverheadProtocolResolvesTheBound(t *testing.T) {
	if testing.Short() {
		t.Skip("host-clock benchmark")
	}
	same := traceControl(t, func(int) *span.Recorder { return nil })
	t.Logf("A/A CPU ratio %.3f (%v vs %v)", same.ratioCPU(), sum(same.offCPUs), sum(same.onCPUs))
	if r := same.ratioCPU(); r > traceMaxRatio || r < 1/traceMaxRatio {
		t.Errorf("A/A control reads %.3f, want within 1/%.2f..%.2f", r, traceMaxRatio, traceMaxRatio)
	}
	perCycle := sum(same.offCPUs) / time.Duration(len(same.offCPUs))
	slow := traceControl(t, func(rep int) *span.Recorder {
		return span.New(span.Config{Process: "bench", Seed: uint64(1000 + rep), Sink: burnSink{perCycle / 10}})
	})
	t.Logf("slowed recorder CPU ratio %.3f (%v vs %v)", slow.ratioCPU(), sum(slow.offCPUs), sum(slow.onCPUs))
	if r := slow.ratioCPU(); r <= traceMaxRatio {
		t.Errorf("a recorder burning %v per %v cycle read %.3f, want above %.2f", perCycle/10, perCycle, r, traceMaxRatio)
	}
}
