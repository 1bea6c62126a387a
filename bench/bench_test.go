package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/oslinux"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{200, 0.95, 189}, // exactly ten beyond: the 95th percentile itself
		{1000, 0.95, 949},
		{100, 0.95, 89}, // only five would lie beyond p95: fall back to ten beyond
		{30, 0.95, 19},
		{21, 0.95, 10}, // ten beyond is the median
		{12, 0.95, 5},  // never below the median
		{1, 0.95, 0},
		{0, 0.95, 0},
	}
	for _, c := range cases {
		if got := tailRank(c.n, c.p); got != c.want {
			t.Errorf("tailRank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	sorted := make([]int64, 200)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if med, tail := quantiles(sorted, 0.95); med != 100 || tail != 190 {
		t.Errorf("quantiles(1..200) = %d, %d, want 100, 190", med, tail)
	}
	if med, tail := quantiles([]int32(nil), 0.95); med != 0 || tail != 0 {
		t.Errorf("quantiles of nothing = %d, %d, want 0, 0", med, tail)
	}
}

func TestMedianOverBlocksIgnoresAStalledBlock(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	w := &window{}
	for _, p50 := range []float64{5, 5, 5, 400, 5, 6, 5, 5, 6, 5} { // one block hit by a stall
		w.Blocks = append(w.Blocks, block{CycleP50: p50})
	}
	if got := w.overBlocks(func(b *block) float64 { return b.CycleP50 }); got != 5 {
		t.Errorf("median over blocks = %v, want 5", got)
	}
	if got := w.blockSpread(); got != 80 {
		t.Errorf("block spread = %v, want 80", got)
	}
}

func TestHostFactorsConvertOnlyTimeOnTheProcessor(t *testing.T) {
	const ms = int64(time.Millisecond)
	twice := int64(2 * refProbeNs) // a probe reading on a host at half the reference speed
	segs := []segment{
		{WallNs: 8 * ms, CPUNs: 8 * ms}, // busy throughout
		{WallNs: 8 * ms, CPUNs: 0},      // waited throughout
		{WallNs: 8 * ms, CPUNs: 4 * ms}, // half and half
		{WallNs: 8 * ms, CPUNs: 9 * ms}, // more CPU time than wall time: several threads ran
	}
	probes := []int64{twice, twice, twice, twice, twice}
	factors, slowdown := make([]float64, len(segs)), make([]float64, len(segs))
	hostFactors(segs, probes, factors, slowdown)
	for i, want := range []float64{0.5, 1, 0.75, 0.5} {
		if factors[i] != want || slowdown[i] != 2 {
			t.Errorf("segment %d: factor %v, slowdown %v; want %v, 2", i, factors[i], slowdown[i], want)
		}
	}

	// CPU time: converted in full when busy, half-way (geometrically) when
	// the segment waited.
	if got := cpuFactor(0.5, 2); got != 0.5 {
		t.Errorf("cpuFactor of a busy segment on a host at half speed = %v, want 0.5", got)
	}
	if got := cpuFactor(1, 2); math.Abs(got-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("cpuFactor of a waiting segment on a host at half speed = %v, want %v", got, math.Sqrt(0.5))
	}

	// One reading that something overlapped (a garbage collection, a stall)
	// moves no segment's factor: the host speed is a median over neighbours.
	busy := make([]segment, 9)
	quiet := make([]int64, 10)
	for i := range busy {
		busy[i] = segment{WallNs: ms, CPUNs: ms}
	}
	for i := range quiet {
		quiet[i] = int64(refProbeNs)
	}
	quiet[5] = 10 * int64(refProbeNs)
	factors, slowdown = make([]float64, len(busy)), make([]float64, len(busy))
	hostFactors(busy, quiet, factors, slowdown)
	for i := range busy {
		if factors[i] != 1 {
			t.Errorf("segment %d next to one slow reading: factor %v, want 1", i, factors[i])
		}
	}
	// A host that stays slow moves every segment inside the slow stretch.
	for i := 3; i < len(quiet); i++ {
		quiet[i] = twice
	}
	hostFactors(busy, quiet, factors, slowdown)
	if factors[0] != 1 || factors[8] != 0.5 {
		t.Errorf("factors across a change of host speed = %v, want 1 at the start and 0.5 at the end", factors)
	}
}

func TestSampleBufConvertsEachCyclesSamples(t *testing.T) {
	s := newSampleBuf(8, 3)
	s.add(400)
	s.add(100)
	s.mark()
	s.mark() // a cycle without samples
	s.add(300)
	s.mark()
	if got := s.take([]float64{0.5, 7, 2}); !slices.Equal(got, []int32{50, 200, 600}) {
		t.Errorf("converted and sorted samples = %v, want [50 200 600]", got)
	}
	s.add(9)
	if got := s.take(nil); !slices.Equal(got, []int32{9}) {
		t.Errorf("samples after a take = %v, want [9]", got)
	}
}

func TestProbeDoesTheSameWorkEveryTimeAndAllocatesNothing(t *testing.T) {
	a, b := newHostProbe(), newHostProbe()
	if allocs := testing.AllocsPerRun(5, func() { a.run() }); allocs != 0 {
		t.Errorf("a probe run allocates %v times", allocs)
	}
	for b.round < a.round {
		b.run()
	}
	if a.sink != b.sink || !slices.Equal(a.nice, b.nice) {
		t.Error("two probes disagree after the same number of runs")
	}
	for _, e := range a.ents {
		if a.slot(e.name).name != e.name {
			t.Fatalf("entity %s has no slot", e.name)
		}
	}
}

func TestTrimmedMeanDropsTheExtremes(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{15, 90, 14, 16}, 15.5}, // one repetition far off the others
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 2}, 1.5},
		{[]float64{7}, 7},
	} {
		if got := trimmedMean(c.vs); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// capabilities lists which optional capabilities of the write chain v has.
func capabilities(v any) [5]bool {
	_, remover := v.(core.CgroupRemover)
	_, restorer := v.(core.PlacementRestorer)
	_, invalidator := v.(core.CacheInvalidator)
	_, batcher := v.(core.BatchApplier)
	_, observer := v.(core.Observer)
	return [5]bool{remover, restorer, invalidator, batcher, observer}
}

// bareOS implements core.OSInterface and nothing else.
type bareOS struct{}

func (*bareOS) SetNice(int, int) error       { return nil }
func (*bareOS) EnsureCgroup(string) error    { return nil }
func (*bareOS) SetShares(string, int) error  { return nil }
func (*bareOS) MoveThread(int, string) error { return nil }

// removerOnlyOS has a capability set no stage of the chain has.
type removerOnlyOS struct{ bareOS }

func (*removerOnlyOS) RemoveCgroup(string) error { return nil }

func TestOSShimsForwardExactlyTheStageCapabilities(t *testing.T) {
	sh := shape{Bindings: 1, Queries: 1, OpsPerQuery: 4, ShiftEvery: 1}
	sys, err := newBenchSystem(sh, cgroupRoot, "")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := oslinux.New(oslinux.Config{Root: cgroupRoot, System: sys})
	if err != nil {
		t.Fatal(err)
	}
	qos := driver.NewQueuedOS(ctl, 0)
	defer qos.Close()
	trail := core.NewAuditTrail(0, nil)
	stages := map[string]core.OSInterface{
		"bare":      &bareOS{},
		"audit":     core.AuditOS(ctl, trail),
		"coalescer": core.NewCoalescer(ctl, nil),
		"queue":     qos,
		"control":   ctl,
	}
	for name, stage := range stages {
		tr := newTracer(sh, 4)
		wrapped, err := wrapOS(stage, tr, layerAudit, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := capabilities(wrapped), capabilities(stage); got != want {
			t.Errorf("%s: shim capabilities (remover, restorer, invalidator, batch, observer) = %v, stage has %v", name, got, want)
		}
		if err := wrapped.SetNice(tidBase, 3); err != nil {
			t.Errorf("%s: SetNice through the shim: %v", name, err)
		}
		if _, calls := tr.total(layerAudit); calls != 1 {
			t.Errorf("%s: %d spans recorded for one call", name, calls)
		}
	}
	if got := sys.table.Nice[0]; got != 3 {
		t.Errorf("nice forwarded through the shims = %d, want 3", got)
	}
	if _, err := wrapOS(&removerOnlyOS{}, newTracer(sh, 4), layerAudit, 0); err == nil {
		t.Error("a capability set no shim matches was wrapped instead of refused")
	}

	// The batch path survives the shim: ops reach the backend in one call.
	tr := newTracer(sh, 4)
	wrapped, _ := wrapOS(qos, tr, layerSubmit, 0)
	errs := make([]error, 2)
	wrapped.(core.BatchApplier).ApplyBatch([]core.ControlOp{
		{Kind: core.OpSetNice, Thread: tidBase + 1, Value: 5},
		{Kind: core.OpSetNice, Thread: tidBase + 2, Value: 6},
	}, errs)
	if errs[0] != nil || errs[1] != nil || sys.table.Nice[1] != 5 || sys.table.Nice[2] != 6 {
		t.Errorf("batch through the shim: errs %v, table %v", errs, sys.table.Nice)
	}
}

type plainTranslator struct{}

func (plainTranslator) Name() string                                      { return "plain" }
func (plainTranslator) Apply(core.Schedule, map[string]core.Entity) error { return nil }

func TestPolicyAndTranslatorShimsForwardCapabilities(t *testing.T) {
	sh := shape{Bindings: 1, Queries: 1, OpsPerQuery: 4, ShiftEvery: 1}
	tr := newTracer(sh, 4)

	inPlace := wrapPolicy(core.GroupPerQuery(core.NewQSPolicy()), tr, 0)
	ip, ok := inPlace.(core.InPlaceScheduler)
	if !ok {
		t.Fatal("shim around an in-place policy lost InPlaceScheduler")
	}
	// The middleware engages the in-place path only when the bound policy is
	// its own in-place target.
	if ip.InPlaceTarget() != inPlace {
		t.Error("in-place shim does not name itself as the in-place target")
	}
	if inPlace.Name() != "qs+query-groups" {
		t.Errorf("policy name through the shim = %q", inPlace.Name())
	}
	if _, ok := wrapPolicy(core.NewRandomPolicy(1), tr, 0).(core.InPlaceScheduler); ok {
		t.Error("shim around a plain policy gained InPlaceScheduler")
	}

	if _, ok := wrapTranslator(core.NewNiceTranslator(&bareOS{}), tr, 0).(core.Resetter); !ok {
		t.Error("shim around a resettable translator lost Resetter")
	}
	if _, ok := wrapTranslator(plainTranslator{}, tr, 0).(core.Resetter); ok {
		t.Error("shim around a plain translator gained Resetter")
	}
}

// tiny scales a workload down to a size a test steps in milliseconds while
// keeping what makes it that workload: the chain, the mechanism, the shift
// pattern, a fetch that waits.
func tiny(wl workload) workload {
	wl.Shape.Bindings = min(wl.Shape.Bindings, 6)
	wl.Shape.Queries = min(wl.Shape.Queries, 3)
	wl.Shape.OpsPerQuery = min(wl.Shape.OpsPerQuery, 5)
	if wl.Shape.RTTMax > 0 {
		wl.Shape.RTTMin, wl.Shape.RTTMax = 20*time.Microsecond, 60*time.Microsecond
	}
	return wl
}

var tinyPlan = plan{
	Blocks: 2, BlockCycles: 6, Warmup: 4, SetupRepeats: 2,
	Quality: qualityPlan{Reps: 1, Warmup: time.Second, Measure: 2 * time.Second},
}

// runTo steps a fresh untraced stack through cycles [0, n) and returns the
// writes it issued and its final table.
func runTo(t *testing.T, sh shape, seed int64, n int) (int64, kernelTable) {
	t.Helper()
	dir, err := scratchDir(sh, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStack(newInputs(sh, seed), nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for c := 0; c < n; c++ {
		if _, err := st.step(c); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	return st.sys.writes(), st.sys.table.clone()
}

func TestInputsAreAPureFunctionOfTheSeed(t *testing.T) {
	for _, wl := range allWorkloads {
		sh := tiny(wl).Shape
		writes1, table1 := runTo(t, sh, 7, 20)
		writes2, table2 := runTo(t, sh, 7, 20)
		if writes1 != writes2 || table1.mismatchedBindings(table2, sh) != 0 {
			t.Errorf("%s: two runs on one seed differ: %d vs %d writes", wl.Name, writes1, writes2)
		}
		// Another seed gives other loads — and, because a shift changes the
		// priority of every operator of a query whatever the loads are, the
		// same number of writes.
		writes3, table3 := runTo(t, sh, 8, 20)
		if writes3 != writes1 {
			t.Errorf("%s: seed 8 issued %d writes, seed 7 %d", wl.Name, writes3, writes1)
		}
		if table3.mismatchedBindings(table1, sh) == 0 {
			t.Errorf("%s: seeds 7 and 8 reach the same table", wl.Name)
		}
	}
}

func TestReferenceSkipsEqualPrefix(t *testing.T) {
	for _, wl := range allWorkloads {
		sh := tiny(wl).Shape
		in := newInputs(sh, 3)
		whole, err := buildReference(in)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= 37; c++ {
			if _, err := whole.step(c); err != nil {
				t.Fatal(err)
			}
		}
		only, err := buildReference(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := only.step(37); err != nil {
			t.Fatal(err)
		}
		if bad := only.sys.table.mismatchedBindings(whole.sys.table, sh); bad != 0 {
			t.Errorf("%s: stepping cycle 37 alone differs from stepping 0..37 in %d bindings", wl.Name, bad)
		}
		// And the stack under test reaches the reference's table.
		_, table := runTo(t, sh, 3, 38)
		if bad := table.mismatchedBindings(whole.sys.table, sh); bad != 0 {
			t.Errorf("%s: %d bindings differ from the reference after 38 cycles", wl.Name, bad)
		}
	}
}

func TestSpentBudgetEndsTheWindowAtABlockBoundary(t *testing.T) {
	sh := tiny(allWorkloads[0]).Shape
	probe := newHostProbe()
	_, st, _, err := setUp(sh, 1, nil, probe, t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w, err := measure(st, nil, probe, 4, 6, 5, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Blocks) != minBlocks || w.Cycles != minBlocks*5 || len(w.Checkpoints) != minBlocks+1 {
		t.Errorf("spent budget: %d blocks, %d cycles, %d checkpoints; want %d, %d, %d",
			len(w.Blocks), w.Cycles, len(w.Checkpoints), minBlocks, minBlocks*5, minBlocks+1)
	}
	if got := w.Checkpoints[minBlocks].Cycle; got != 4+minBlocks*5-1 {
		t.Errorf("last checkpoint after cycle %d, want %d", got, 4+minBlocks*5-1)
	}
}

func TestVerifyCountsAWrongFinalState(t *testing.T) {
	sh := tiny(allWorkloads[0]).Shape
	in := newInputs(sh, 5)
	_, table := runTo(t, sh, 5, 10)
	if bad, err := verify(in, []checkpoint{{9, table}}); err != nil || bad != 0 {
		t.Fatalf("verify of a correct table = %d, %v", bad, err)
	}
	table.Nice[0]++
	table.Shares[sh.groupsPerBinding()] = 7 // second binding
	if bad, err := verify(in, []checkpoint{{9, table}}); err != nil || bad != 2 {
		t.Errorf("verify of a table wrong in two bindings = %d, %v", bad, err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames())
	}
	for _, wl := range allWorkloads {
		wl := tiny(wl)
		out, err := runUntraced(wl, 1, tinyPlan, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		check(t, wl.Name, out, bf.EndToEnd)
		traced, err := runTraced(wl, 1, tinyPlan, t.TempDir(), filepath.Join(t.TempDir(), "trace.jsonl"))
		if err != nil {
			t.Fatalf("%s traced: %v", wl.Name, err)
		}
		check(t, wl.Name+" traced", traced, bf.PerLayer)
	}
}

func check(t *testing.T, run string, out *outcome, want []struct{ Name, Unit string }) {
	t.Helper()
	if out.Failed != 0 || out.Attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", run, out.Failed, out.Attempted, out.Notes)
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", run, len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", run, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", run, m.Name, got.Unit, m.Unit)
		}
	}
}
