package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/span"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validConfig = `{
  "periodMillis": 100,
  "cgroupRoot": "/cg/lachesis",
  "translator": "nice",
  "entities": [
    {"name": "q.count.0", "query": "q", "tid": 4242, "logical": ["count"]},
    {"name": "q.toll.0",  "query": "q", "tid": 4243, "logical": ["toll"]}
  ],
  "priorities": {"count": 10, "toll": 1}
}`

func TestDryRunRenicesConfiguredThreads(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1"}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// count (priority 10) gets the strong nice, toll the weak one.
	if !strings.Contains(s, "renice tid=4242 nice=-20") {
		t.Errorf("missing strong renice:\n%s", s)
	}
	if !strings.Contains(s, "renice tid=4243 nice=19") {
		t.Errorf("missing weak renice:\n%s", s)
	}
	if !strings.Contains(errOut.String(), "2 entities") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestSharesTranslatorConfig(t *testing.T) {
	cfg := writeConfig(t, strings.Replace(validConfig, `"nice"`, `"cpu.shares"`, 1))
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1"}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "mkdir -p /cg/lachesis/") {
		t.Errorf("missing cgroup creation:\n%s", s)
	}
	if !strings.Contains(s, "cpu.shares") {
		t.Errorf("missing shares write:\n%s", s)
	}
}

func TestConfigErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{}, &out, &errOut, nil); err == nil {
		t.Error("missing -config should fail")
	}
	if err := run([]string{"-config", "/no/such/file"}, &out, &errOut, nil); err == nil {
		t.Error("unreadable config should fail")
	}
	bad := writeConfig(t, "{not json")
	if err := run([]string{"-config", bad}, &out, &errOut, nil); err == nil {
		t.Error("malformed config should fail")
	}
	badTr := writeConfig(t, strings.Replace(validConfig, `"nice"`, `"bogus"`, 1))
	if err := run([]string{"-config", badTr}, &out, &errOut, nil); err == nil {
		t.Error("unknown translator should fail")
	}
}

func TestGracefulShutdownRestoresNices(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt // queued: delivered after the first step
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "0"}, &out, &errOut, sigs); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The schedule is applied first, then shutdown returns both threads to
	// the default nice.
	if !strings.Contains(s, "renice tid=4242 nice=-20") {
		t.Errorf("schedule not applied before shutdown:\n%s", s)
	}
	for _, want := range []string{"renice tid=4242 nice=0", "renice tid=4243 nice=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in shutdown output:\n%s", want, s)
		}
	}
	if !strings.Contains(errOut.String(), "shutting down") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestGracefulShutdownRemovesCgroups(t *testing.T) {
	cfg := writeConfig(t, strings.Replace(validConfig, `"nice"`, `"cpu.shares"`, 1))
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "0"}, &out, &errOut, sigs); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "mkdir -p /cg/lachesis/") {
		t.Fatalf("no cgroups created:\n%s", s)
	}
	// Shutdown moves threads back to the parent group and removes the
	// cgroups the daemon created (dry-run prints the rmdirs).
	if !strings.Contains(s, "dry-run: rmdir /cg/lachesis/") {
		t.Errorf("missing cgroup removal in shutdown output:\n%s", s)
	}
}

func TestHealthSnapshotPrinted(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1"}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	e := errOut.String()
	if !strings.Contains(e, "health: binding configured+transform/nice healthy") {
		t.Errorf("missing binding health line:\n%s", e)
	}
	if !strings.Contains(e, "health: driver static") {
		t.Errorf("missing driver health line:\n%s", e)
	}
}

// TestStatePersistsAcrossRuns: the -state directory carries desired state
// from one daemon life to the next (the warm-restart load path; repair is
// exercised in internal/harness, since dry-run cannot observe).
func TestStatePersistsAcrossRuns(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	dir := t.TempDir()

	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1", "-state", dir}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "desired state: 0 entries") {
		t.Errorf("first life should start empty: %q", errOut.String())
	}
	// Clean shutdown checkpoints the log into a snapshot.
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("no snapshot after clean shutdown: %v", err)
	}

	var out2, errOut2 bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1", "-state", dir}, &out2, &errOut2, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut2.String(), "desired state: 2 entries") {
		t.Errorf("second life did not load the persisted intents: %q", errOut2.String())
	}
}

// TestReconcileRequiresObservableSystem: dry-run cannot read /proc, so
// asking for reconciliation degrades with a warning instead of running a
// loop that could never repair.
func TestReconcileRequiresObservableSystem(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	var out, errOut bytes.Buffer
	args := []string{"-config", cfg, "-iterations", "1", "-reconcile-interval", "1s", "-state", t.TempDir()}
	if err := run(args, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "reconciliation disabled") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// TestFlagValidationFailsFast: contradictory flags are rejected at
// startup instead of silently degrading a subsystem.
func TestFlagValidationFailsFast(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	cases := [][]string{
		{"-config", cfg, "-reconcile-interval", "0s"},  // explicitly disabled-by-zero
		{"-config", cfg, "-reconcile-interval", "-1s"}, // negative interval
		{"-config", cfg, "-reconcile-interval", "1s"},  // reconcile without -state
		{"-config", cfg, "-fleet", "127.0.0.1:9600"},   // fleet without a reachable policy API
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut, nil); err == nil {
			t.Errorf("run(%v) succeeded, want fail-fast validation error", args)
		}
	}
}

const invertedConfig = `{
  "periodMillis": 100,
  "cgroupRoot": "/cg/lachesis",
  "translator": "nice",
  "entities": [
    {"name": "q.count.0", "query": "q", "tid": 4242, "logical": ["count"]},
    {"name": "q.toll.0",  "query": "q", "tid": 4243, "logical": ["toll"]}
  ],
  "priorities": {"count": 1, "toll": 10}
}`

// TestSIGHUPHotReloadPromotesAndPersists walks the full guarded-rollout
// life cycle: a first run seeds the config priorities as last-good; a
// SIGHUP during the second run stages the (rewritten) config file's
// inverted priorities as a canary candidate, which a clean window
// promotes and persists; a third run enforces the promoted policy from
// the state directory even though its config file still says otherwise.
func TestSIGHUPHotReloadPromotesAndPersists(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "config.json")
	statePath := filepath.Join(dir, "state")
	if err := os.WriteFile(cfgPath, []byte(validConfig), 0o644); err != nil {
		t.Fatal(err)
	}

	// Run 1: seed last-good with the config's priorities.
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-state", statePath, "-iterations", "1"},
		&out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "renice tid=4242 nice=-20") {
		t.Fatalf("run 1 did not enforce the config priorities:\n%s", out.String())
	}

	// Run 2: the config file now inverts the priorities; a queued SIGHUP
	// stages them. With no guard violations the default 5-cycle window
	// promotes, so later iterations renice the inverted way.
	if err := os.WriteFile(cfgPath, []byte(invertedConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	sigs <- syscall.SIGHUP
	out.Reset()
	errOut.Reset()
	if err := run([]string{"-config", cfgPath, "-state", statePath, "-iterations", "10"},
		&out, &errOut, sigs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "loaded last-good policy") {
		t.Errorf("run 2 did not start from last-good:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "proposed 2 priorities as canary candidate") {
		t.Errorf("SIGHUP did not stage the candidate:\n%s", errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "renice tid=4242 nice=-20") {
		t.Errorf("run 2 did not start on the stable policy:\n%s", s)
	}
	if !strings.Contains(s, "renice tid=4242 nice=19") || !strings.Contains(s, "renice tid=4243 nice=-20") {
		t.Errorf("promoted candidate never enforced:\n%s", s)
	}

	// Run 3: config still inverted on disk, but the point is the state
	// directory — the promoted policy must be the one loaded and applied.
	if err := os.WriteFile(cfgPath, []byte(validConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if err := run([]string{"-config", cfgPath, "-state", statePath, "-iterations", "1"},
		&out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "loaded last-good policy") {
		t.Errorf("run 3 did not load last-good:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "renice tid=4242 nice=19") {
		t.Errorf("run 3 did not enforce the promoted policy:\n%s", out.String())
	}
}

const combinedConfig = `{
  "periodMillis": 100,
  "cgroupRoot": "/cg/lachesis",
  "translator": "nice+cpu.shares",
  "entities": [
    {"name": "a.count.0", "query": "a", "tid": 4242, "logical": ["count"]},
    {"name": "a.toll.0",  "query": "a", "tid": 4243, "logical": ["toll"]},
    {"name": "b.count.0", "query": "b", "tid": 5242, "logical": ["count"]},
    {"name": "b.toll.0",  "query": "b", "tid": 5243, "logical": ["toll"]}
  ],
  "priorities": {"count": 10, "toll": 1}
}`

// TestCombinedTranslatorGroupsPerQuery: the combined translator needs a
// grouping schedule, which the configured static policy does not emit; the
// daemon supplies the paper's cgroup-per-query grouping. Before the fix
// every step failed with "combined translator needs an explicit grouping
// schedule" and the binding degraded. The second run checks the propose
// path: a SIGHUP candidate must be grouped too, or it fails its first
// apply instead of being promoted.
func TestCombinedTranslatorGroupsPerQuery(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "config.json")
	statePath := filepath.Join(dir, "state")
	if err := os.WriteFile(cfgPath, []byte(combinedConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-state", statePath, "-iterations", "2"},
		&out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"/cg/lachesis/query-a/cpu.shares",
		"/cg/lachesis/query-b/cpu.shares",
		`echo "4243" > /cg/lachesis/query-a/tasks`,
		`echo "5242" > /cg/lachesis/query-b/tasks`,
		"renice tid=4242 nice=-20",
		"renice tid=5243 nice=19",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("first step did not apply %q:\n%s", want, s)
		}
	}
	if strings.Contains(errOut.String(), "lachesisd: step:") {
		t.Errorf("step failed under the combined translator:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "/nice+cpu.shares healthy") {
		t.Errorf("binding not healthy after two iterations:\n%s", errOut.String())
	}

	// Inverted priorities staged by SIGHUP: promoted only if the candidate
	// applies cleanly under the same translator.
	inverted := strings.Replace(combinedConfig, `{"count": 10, "toll": 1}`, `{"count": 1, "toll": 10}`, 1)
	if err := os.WriteFile(cfgPath, []byte(inverted), 0o644); err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	sigs <- syscall.SIGHUP
	out.Reset()
	errOut.Reset()
	if err := run([]string{"-config", cfgPath, "-state", statePath, "-iterations", "10"},
		&out, &errOut, sigs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "proposed 2 priorities as canary candidate") {
		t.Errorf("SIGHUP did not stage the candidate:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "lachesisd: step:") {
		t.Errorf("candidate failed to apply under the combined translator:\n%s", errOut.String())
	}
	s = out.String()
	if !strings.Contains(s, "renice tid=4242 nice=19") || !strings.Contains(s, "renice tid=5243 nice=-20") {
		t.Errorf("grouped candidate never enforced:\n%s", s)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the daemon goroutine
// writes while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestConcurrentPolicyProposals races two simultaneous POST /policy
// requests against a live daemon: exactly one is accepted (202), the
// other conflicts (409), and the rollout state afterwards shows a single
// coherent candidate — named by the payload's version and attributed to
// its origin in the audit trail, the fleet coordinator's handshake.
func TestConcurrentPolicyProposals(t *testing.T) {
	// A huge canary window so the candidate is still in flight (and the
	// daemon still looping) while the test inspects it.
	cfg := writeConfig(t, strings.Replace(validConfig, `"priorities"`,
		`"canary": {"windowCycles": 100000}, "priorities"`, 1))
	var out, errOut syncBuffer
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfg, "-iterations", "0", "-introspect", "127.0.0.1:0"},
			&out, &errOut, sigs)
	}()
	defer func() {
		sigs <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run = %v\nstderr: %s", err, errOut.String())
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down")
		}
	}()

	// The daemon picks its own port; scrape it off stderr.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("introspection server never came up:\n%s", errOut.String())
		}
		for _, line := range strings.Split(errOut.String(), "\n") {
			if _, addr, ok := strings.Cut(line, "listening on http://"); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	payload := `{"priorities":{"count":1,"toll":10},"origin":"fleet","version":"v7"}`
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/policy", "application/json", strings.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	got := map[int]int{}
	for c := range codes {
		got[c]++
	}
	if got[http.StatusAccepted] != 1 || got[http.StatusConflict] != 1 {
		t.Fatalf("status codes = %v, want exactly one 202 and one 409", got)
	}

	// No partial rollout state: one active candidate, named by the
	// proposal's version.
	resp, err := http.Get(base + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	var st guard.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Active || st.Candidate != "v7" {
		t.Fatalf("rollout after race = %+v, want active candidate v7", st)
	}

	// The accepted proposal is attributed to its origin in the audit trail.
	resp, err = http.Get(base + "/debug/audit?n=256")
	if err != nil {
		t.Fatal(err)
	}
	var audit bytes.Buffer
	_, _ = audit.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(audit.String(), `staged by origin \"fleet\"`) {
		t.Fatalf("audit trail missing fleet-origin attribution:\n%s", audit.String())
	}
}

// TestFleetBeaconRegistersWithCoordinator: -fleet wires the registration
// and heartbeat client; the daemon joins the coordinator and advertises
// its introspection address without ever blocking the decision loop.
func TestFleetBeaconRegistersWithCoordinator(t *testing.T) {
	var mu sync.Mutex
	var registered []fleet.RegisterRequest
	beats := 0
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/register":
			var req fleet.RegisterRequest
			_ = json.NewDecoder(r.Body).Decode(&req)
			registered = append(registered, req)
			writeJSON(w, http.StatusOK, fleet.RegisterResponse{Generation: 1, IntervalMs: 10})
		case "/heartbeat":
			beats++
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer coord.Close()

	cfg := writeConfig(t, validConfig)
	var out, errOut syncBuffer
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-config", cfg, "-iterations", "0", "-introspect", "127.0.0.1:0",
			"-fleet", coord.URL, "-agent-id", "n1"}, &out, &errOut, sigs)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := len(registered) > 0 && beats > 0
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never joined the coordinator:\n%s", errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	sigs <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v\nstderr: %s", err, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	mu.Lock()
	defer mu.Unlock()
	if registered[0].ID != "n1" || registered[0].Addr == "" {
		t.Fatalf("register request = %+v, want id n1 advertising the introspection address", registered[0])
	}
}

// TestGuardBlocksOutOfBoundsBatch: with a guard section narrowing the
// nice range, the configured policy's full-range output violates the
// nice-bounds invariant and the batch never reaches the OS.
func TestGuardBlocksOutOfBoundsBatch(t *testing.T) {
	guarded := strings.Replace(validConfig, `"priorities"`,
		`"guard": {"niceMin": -10, "niceMax": 10}, "priorities"`, 1)
	cfg := writeConfig(t, guarded)
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1"}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "renice") {
		t.Errorf("guard let an out-of-bounds batch through:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "nice-bounds") {
		t.Errorf("stderr carries no nice-bounds violation:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "guard(nice[-10,10]") {
		t.Errorf("guard invariants not logged:\n%s", errOut.String())
	}
}

// TestWatchdogTripDumpsFlightRecorder: the acceptance path for the
// anomaly flight recorder. A cycle runs with tracing on, then a forced
// phase overrun trips the watchdog at cycle end; the wired hook must
// dump a trace bundle whose trigger names the offending trace and whose
// spans include that cycle's root.
func TestWatchdogTripDumpsFlightRecorder(t *testing.T) {
	mw, _, _ := newTestDaemon(t, nil)
	spans := span.New(span.Config{Process: "lachesisd", Seed: 11})
	mw.SetSpans(spans)
	wd := guard.NewWatchdog(guard.WatchdogConfig{TripAfter: 1})
	mw.SetWatchdog(wd)
	dir := t.TempDir()
	flight := span.NewFlightRecorder(spans, dir, 0)
	wireFlightHooks(flight, nil, wd, nil, func() time.Duration { return 0 })

	// The offending cycle completes (its spans are in the ring) before
	// the watchdog folds the overrun into a trip on CycleDone — so the
	// dump holds the very cycle that overran.
	if _, err := mw.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	offending := spans.LastTrace()
	wd.PhaseOverrun("q/nice", core.PhaseSchedule, time.Millisecond)
	wd.CycleDone(time.Second)
	if !wd.Degraded() {
		t.Fatal("watchdog did not trip")
	}

	path := flight.LastDump()
	if path == "" {
		t.Fatal("trip produced no flight-recorder dump")
	}
	if !strings.Contains(filepath.Base(path), span.TriggerWatchdog) {
		t.Errorf("dump name %q does not carry the trigger kind", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, triggers, err := span.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(triggers) != 1 || triggers[0].Kind != span.TriggerWatchdog {
		t.Fatalf("triggers = %+v, want one watchdog-trip", triggers)
	}
	if triggers[0].Trace != offending {
		t.Errorf("trigger names trace %q, want the offending cycle %q", triggers[0].Trace, offending)
	}
	foundCycle := false
	for _, sp := range got {
		if sp.Trace == offending && sp.Name == "cycle" {
			foundCycle = true
		}
	}
	if !foundCycle {
		t.Errorf("dump lacks the offending cycle's root span (%d spans)", len(got))
	}
}

// TestFlightDirDumpsOnGuardBlock: through run(), a guard-blocked batch
// trips the flight recorder and leaves a trace bundle in -flight-dir.
func TestFlightDirDumpsOnGuardBlock(t *testing.T) {
	guarded := strings.Replace(validConfig, `"priorities"`,
		`"guard": {"niceMin": -10, "niceMax": 10}, "priorities"`, 1)
	cfg := writeConfig(t, guarded)
	dir := filepath.Join(t.TempDir(), "flight")
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1", "-flight-dir", dir}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no flight dump written (err %v):\n%s", err, errOut.String())
	}
	name := entries[0].Name()
	if !strings.Contains(name, span.TriggerGuardBlock) {
		t.Errorf("dump name %q does not carry the trigger kind", name)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, triggers, err := span.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(triggers) != 1 || triggers[0].Kind != span.TriggerGuardBlock {
		t.Fatalf("triggers = %+v, want one guard-block", triggers)
	}
	if !strings.Contains(triggers[0].Detail, "nice-bounds") {
		t.Errorf("trigger detail %q does not name the violated invariant", triggers[0].Detail)
	}
	if triggers[0].Trace == "" {
		t.Error("trigger does not name the in-flight trace")
	}
}

// TestSpanLogWritesJSONL: -span-log streams every completed span to the
// JSONL file, stamped with the daemon's process name.
func TestSpanLogWritesJSONL(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "2", "-span-log", path}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, _, err := span.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	cycles := 0
	for _, sp := range got {
		if sp.Process != "lachesisd" {
			t.Errorf("span %s/%s has process %q", sp.Name, sp.ID, sp.Process)
		}
		if sp.Name == "cycle" {
			cycles++
		}
	}
	if cycles != 2 {
		t.Errorf("cycle spans = %d, want 2 (one per iteration)", cycles)
	}
}
