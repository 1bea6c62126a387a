package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/metrics"
	"lachesis/internal/reconcile"
	"lachesis/internal/simctl"
	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// The drift experiment validates the reconciliation layer rather than a
// paper figure. Phase 1: a Storm/ETL deployment is scheduled with a fixed
// nice schedule while an adversarial agent renices managed threads behind
// the middleware's back; the run repeats with and without the
// reconciliation loop, and the report shows the reconciling middleware
// restoring the interfered entities within two reconcile intervals while
// the fire-and-forget variant stays diverged (its caches absorb the
// same-value re-applies, so interference is permanent). Phase 2 proves
// crash-safe warm restart: the daemon's desired state persists through an
// uncloses store, the "daemon" dies, interference scrambles the kernel
// during the downtime, and a restarted stack loads the snapshot and
// reconverges before making its first new decision.

const (
	driftSeed = 31
	// driftRate is tuples/s per query, below ETL saturation on the Odroid.
	driftRate = 800
	// driftInterval is the reconcile interval of the reconciling variant;
	// the acceptance window is two of these after the last interference.
	driftInterval = time.Second
	// driftInterferePeriod spaces the adversary's renice events.
	driftInterferePeriod = 300 * time.Millisecond
	// driftNice is the value the adversary writes — far from anything the
	// static schedule produces.
	driftNice = 15
)

// DriftVariantRow is one phase-1 run — a row of BENCH_drift.json.
type DriftVariantRow struct {
	Variant  string `json:"variant"`
	Entities int    `json:"entities"`
	// Interfered counts distinct threads the adversary touched.
	Interfered int `json:"interfered"`
	// MismatchAfterBurst samples desired/actual divergence right after the
	// last interference event (both variants should be nonzero here).
	MismatchAfterBurst int `json:"mismatch_after_burst"`
	// Restored counts interfered threads whose kernel nice matches desired
	// again two reconcile intervals after the last interference.
	Restored         int     `json:"restored"`
	RestoredFraction float64 `json:"restored_fraction"`
	FinalMismatch    int     `json:"final_mismatch"`
	ReconcilePasses  int64   `json:"reconcile_passes"`
	TotalRepairs     int64   `json:"total_repairs"`
	EverConverged    bool    `json:"ever_converged"`
	StepErrors       int64   `json:"step_errors"`
}

// WarmRestartRow is the phase-2 outcome.
type WarmRestartRow struct {
	EntriesPersisted int   `json:"entries_persisted"`
	EntriesLoaded    int   `json:"entries_loaded"`
	VersionLoaded    int64 `json:"version_loaded"`
	// MismatchBefore counts divergence right after the restarted daemon
	// loads its snapshot (the downtime interference), MismatchAfter the
	// divergence after the pre-first-decision reconcile pass.
	MismatchBefore   int   `json:"mismatch_before"`
	MismatchAfter    int   `json:"mismatch_after"`
	RepairsOnRestart int   `json:"repairs_on_restart"`
	StepErrors       int64 `json:"step_errors_after_restart"`
}

// DriftReport is the BENCH_drift.json document.
type DriftReport struct {
	Experiment  string            `json:"experiment"`
	Interval    time.Duration     `json:"reconcile_interval_ns"`
	Rows        []DriftVariantRow `json:"rows"`
	WarmRestart WarmRestartRow    `json:"warm_restart"`
}

// driftWorld is the assembled simulated stack shared by both phases.
type driftWorld struct {
	kernel  *simos.Kernel
	engine  *spe.Engine
	adapter *simctl.OSAdapter
	drv     *driver.Driver
	state   *reconcile.DesiredState
	gate    core.OSInterface
	mw      *core.Middleware
}

// newDriftWorld deploys ETL on a Storm engine and binds a static nice
// schedule through the recording/gated control chain. A static policy
// (not QS) keeps desired values constant across steps, so any healing in
// the fire-and-forget variant could only come from reconciliation — which
// is exactly the variable under test.
func newDriftWorld(store *reconcile.Store) (*driftWorld, error) {
	k := simos.New(simos.OdroidXU4())
	eng, err := spe.New(k, spe.Config{Name: "storm0", Flavor: spe.FlavorStorm, Seed: driftSeed})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if _, err := eng.Deploy(workloads.ETL(), workloads.IoTSource(driftRate, driftSeed)); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	drv, err := driver.New(eng, metrics.NewStore(time.Second))
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	osa, err := simctl.NewOSAdapter(k)
	if err != nil {
		return nil, err
	}
	state, err := reconcile.NewDesiredState(store)
	if err != nil {
		return nil, fmt.Errorf("desired state: %w", err)
	}
	ident := func(tid int) uint64 {
		id, err := osa.ThreadIdentity(tid)
		if err != nil {
			return 0
		}
		return id
	}
	gate := core.NewDriverGate().ExclusiveOS(reconcile.RecordOS(osa, state, ident, nil))

	prios := core.LogicalSchedule{}
	for i, e := range drv.Entities() {
		for _, l := range e.Logical {
			prios[l] = float64(5 * (i + 1))
		}
	}
	mw := core.NewMiddleware(nil)
	if err := mw.Bind(core.Binding{
		Policy: core.Transformed(&core.StaticLogicalPolicy{
			PolicyName: "static", Priorities: prios, Default: 0,
		}, core.MaxPriorityRule),
		Translator: core.NewNiceTranslator(gate),
		Drivers:    []core.Driver{drv},
		Period:     time.Second,
	}); err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	return &driftWorld{kernel: k, engine: eng, adapter: osa, drv: drv, state: state, gate: gate, mw: mw}, nil
}

// niceMismatches counts desired nice entries the kernel disagrees with
// (dead threads are the reconciler's business, not drift).
func niceMismatches(k *simos.Kernel, state *reconcile.DesiredState) int {
	n := 0
	for _, e := range state.Entries() {
		if e.Kind != reconcile.KindNice {
			continue
		}
		got, err := k.Nice(simos.ThreadID(e.TID))
		if err != nil {
			continue
		}
		if got != e.Value {
			n++
		}
	}
	return n
}

// runDriftVariant runs phase 1 once, with or without the reconciler.
func runDriftVariant(reconciling bool, sc Scale) (DriftVariantRow, error) {
	name := "fire-and-forget"
	if reconciling {
		name = "reconciling"
	}
	row := DriftVariantRow{Variant: name}

	w, err := newDriftWorld(nil)
	if err != nil {
		return row, err
	}
	runner, err := simctl.StartMiddleware(w.kernel, w.mw)
	if err != nil {
		return row, err
	}
	var rec *reconcile.Reconciler
	if reconciling {
		rec = reconcile.New(reconcile.Config{
			OS: w.gate, Observer: w.adapter, State: w.state,
			Telemetry: w.mw.Telemetry(), Now: w.kernel.Now,
		})
		if _, err := simctl.StartReconciler(w.kernel, rec, driftInterval, driftSeed); err != nil {
			return row, err
		}
	}

	// The adversary renices a random managed thread every interference
	// period through the first half of the measure window, then one final
	// event samples the divergence it caused.
	rng := rand.New(rand.NewSource(driftSeed))
	interfered := make(map[int]bool)
	var events []simctl.ChaosEvent
	burstEnd := sc.Warmup + sc.Measure/2
	for at := sc.Warmup; at < burstEnd; at += driftInterferePeriod {
		events = append(events, simctl.ChaosEvent{
			At: at, Name: "renice",
			Do: func() error {
				var tids []int
				for _, e := range w.state.Entries() {
					if e.Kind == reconcile.KindNice {
						tids = append(tids, e.TID)
					}
				}
				if len(tids) == 0 {
					return nil
				}
				tid := tids[rng.Intn(len(tids))]
				interfered[tid] = true
				return w.kernel.SetNice(simos.ThreadID(tid), driftNice)
			},
		})
	}
	events = append(events, simctl.ChaosEvent{
		At: burstEnd, Name: "sample",
		Do: func() error {
			row.MismatchAfterBurst = niceMismatches(w.kernel, w.state)
			return nil
		},
	})
	if _, err := simctl.StartChaosAgent(w.kernel, events); err != nil {
		return row, err
	}

	// The acceptance window: two reconcile intervals past the last
	// interference (the same horizon for both variants, so the
	// fire-and-forget run had every chance to heal and didn't).
	w.kernel.RunUntil(burstEnd + 2*driftInterval)

	row.Entities = len(w.drv.Entities())
	row.Interfered = len(interfered)
	for tid := range interfered {
		if e, ok := w.state.Nice(tid); ok {
			if got, err := w.kernel.Nice(simos.ThreadID(tid)); err == nil && got == e.Value {
				row.Restored++
			}
		}
	}
	if row.Interfered > 0 {
		row.RestoredFraction = float64(row.Restored) / float64(row.Interfered)
	}
	row.FinalMismatch = niceMismatches(w.kernel, w.state)
	row.StepErrors = runner.Errs
	if rec != nil {
		st := rec.Status()
		row.ReconcilePasses = st.Passes
		row.TotalRepairs = st.TotalRepairs
		row.EverConverged = st.EverConverged
	}
	return row, nil
}

// runWarmRestart runs phase 2: persist desired state, crash without
// closing the store, scramble the kernel during downtime, restart a cold
// stack over the same state directory, and reconcile before the first new
// decision.
func runWarmRestart(sc Scale) (WarmRestartRow, error) {
	var row WarmRestartRow
	dir, err := os.MkdirTemp("", "lachesis-drift-state-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	fs1, err := reconcile.NewOSFS(dir)
	if err != nil {
		return row, err
	}

	// First life: apply the schedule a few times, persisting every intent
	// through the fsync'd append log. No Close, no Checkpoint — the crash
	// path.
	w1, err := newDriftWorld(reconcile.NewStore(fs1, nil))
	if err != nil {
		return row, err
	}
	now := sc.Warmup
	w1.kernel.RunUntil(now)
	for i := 0; i < 3; i++ {
		if _, err := w1.mw.Step(now); err != nil {
			return row, fmt.Errorf("pre-crash step: %w", err)
		}
		now += time.Second
		w1.kernel.RunUntil(now)
	}
	row.EntriesPersisted = w1.state.Len()

	// The daemon is gone; the interference lands while nobody watches.
	for _, e := range w1.state.Entries() {
		if e.Kind == reconcile.KindNice {
			if err := w1.kernel.SetNice(simos.ThreadID(e.TID), driftNice); err != nil {
				return row, err
			}
		}
	}

	// Second life: a cold adapter (empty caches — a fresh process) over
	// the same kernel, desired state reloaded from the crash-surviving
	// log.
	k := w1.kernel
	fs2, err := reconcile.NewOSFS(dir)
	if err != nil {
		return row, err
	}
	state2, err := reconcile.NewDesiredState(reconcile.NewStore(fs2, nil))
	if err != nil {
		return row, fmt.Errorf("reload desired state: %w", err)
	}
	row.EntriesLoaded = state2.Len()
	row.VersionLoaded = state2.Version()
	osa2, err := simctl.NewOSAdapter(k)
	if err != nil {
		return row, err
	}
	ident2 := func(tid int) uint64 {
		id, err := osa2.ThreadIdentity(tid)
		if err != nil {
			return 0
		}
		return id
	}
	gate2 := core.NewDriverGate().ExclusiveOS(reconcile.RecordOS(osa2, state2, ident2, nil))

	row.MismatchBefore = niceMismatches(k, state2)
	rec2 := reconcile.New(reconcile.Config{OS: gate2, Observer: osa2, State: state2, Now: k.Now})
	res := rec2.Reconcile()
	row.RepairsOnRestart = res.Repaired
	row.MismatchAfter = niceMismatches(k, state2)

	// Only now does the restarted middleware make its first decision.
	drv2, err := driver.New(w1.engine, metrics.NewStore(time.Second))
	if err != nil {
		return row, err
	}
	prios := core.LogicalSchedule{}
	for i, e := range drv2.Entities() {
		for _, l := range e.Logical {
			prios[l] = float64(5 * (i + 1))
		}
	}
	mw2 := core.NewMiddleware(nil)
	if err := mw2.Bind(core.Binding{
		Policy: core.Transformed(&core.StaticLogicalPolicy{
			PolicyName: "static", Priorities: prios, Default: 0,
		}, core.MaxPriorityRule),
		Translator: core.NewNiceTranslator(gate2),
		Drivers:    []core.Driver{drv2},
		Period:     time.Second,
	}); err != nil {
		return row, err
	}
	if _, err := mw2.Step(now); err != nil {
		row.StepErrors++
	}
	return row, nil
}

// driftExp runs both phases and emits BENCH_drift.json when an artifact
// directory is configured.
func driftExp(w io.Writer, sc Scale) error {
	report := DriftReport{Experiment: "drift", Interval: driftInterval}
	for _, reconciling := range []bool{true, false} {
		if sc.Progress != nil {
			sc.Progress(fmt.Sprintf("drift: reconciling=%v", reconciling))
		}
		row, err := runDriftVariant(reconciling, sc)
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
	}
	if sc.Progress != nil {
		sc.Progress("drift: warm restart")
	}
	wr, err := runWarmRestart(sc)
	if err != nil {
		return err
	}
	report.WarmRestart = wr

	fmt.Fprintln(w, "# Drift: desired-state reconciliation under adversarial interference")
	fmt.Fprintf(w, "ETL on Storm (Odroid), renice every %v for %v; reconcile interval %v;\n",
		driftInterferePeriod, sc.Measure/2, driftInterval)
	fmt.Fprintln(w, "acceptance sampled two reconcile intervals after the last interference")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %9s %11s %9s %10s %9s %8s %8s\n",
		"variant", "entities", "interfered", "restored", "restored%", "mismatch", "passes", "repairs")
	for _, r := range report.Rows {
		fmt.Fprintf(w, "%-16s %9d %11d %9d %9.0f%% %9d %8d %8d\n",
			r.Variant, r.Entities, r.Interfered, r.Restored, r.RestoredFraction*100,
			r.FinalMismatch, r.ReconcilePasses, r.TotalRepairs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "warm restart: %d/%d entries reloaded (version %d); mismatch %d before first-decision reconcile, %d after (%d repairs)\n",
		wr.EntriesLoaded, wr.EntriesPersisted, wr.VersionLoaded,
		wr.MismatchBefore, wr.MismatchAfter, wr.RepairsOnRestart)
	fmt.Fprintln(w, "the reconciling run heals every interfered thread; fire-and-forget stays")
	fmt.Fprintln(w, "diverged because its caches absorb the same-value re-applies.")

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_drift.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	return nil
}
