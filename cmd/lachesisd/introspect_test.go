package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/oslinux"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// newTestDaemon assembles the same stack run() builds: static entities, a
// dry-run Linux control, an audited nice translator, and a static policy.
func newTestDaemon(t *testing.T, tr core.Translator) (*core.Middleware, *core.AuditTrail, core.OSInterface) {
	t.Helper()
	ctl, err := oslinux.New(oslinux.Config{
		Root:    "/cg/lachesis",
		System:  oslinux.DryRunSystem{W: io.Discard},
		Version: oslinux.V1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trail := core.NewAuditTrail(0, nil)
	osIface := core.AuditOS(ctl, trail)
	drv := &staticDriver{entities: []core.Entity{
		{Name: "q.count.0", Driver: "static", Query: "q", Thread: 101, Logical: []string{"count"}},
		{Name: "q.toll.0", Driver: "static", Query: "q", Thread: 102, Logical: []string{"toll"}},
	}}
	if tr == nil {
		tr = core.NewNiceTranslator(osIface)
	}
	policy := core.Transformed(&core.StaticLogicalPolicy{
		PolicyName: "configured",
		Priorities: core.LogicalSchedule{"count": 10, "toll": 1},
		Default:    0,
	}, core.MaxPriorityRule)
	mw := core.NewMiddleware(nil)
	mw.SetAudit(trail)
	if err := mw.Bind(core.Binding{
		Policy:     policy,
		Translator: tr,
		Drivers:    []core.Driver{drv},
		Period:     time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	return mw, trail, osIface
}

func TestIntrospectionMetricsEndpoint(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	if _, err := mw.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		core.MetricStepsTotal + " 1",
		"# TYPE " + core.MetricStepSeconds + " histogram",
		core.MetricPolicyRunsTotal,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestIntrospectionHealthEndpoint(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	if _, err := mw.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v healthView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" {
		t.Errorf("status %q", v.Status)
	}
	if len(v.Bindings) != 1 || v.Bindings[0].State != "healthy" {
		t.Errorf("bindings = %+v", v.Bindings)
	}
	if v.Bindings[0].Policy != "configured+transform" {
		t.Errorf("policy = %q", v.Bindings[0].Policy)
	}
	if len(v.Drivers) != 1 || v.Drivers[0].Driver != "static" {
		t.Errorf("drivers = %+v", v.Drivers)
	}
}

// failingTranslator makes every apply fail so the binding degrades.
type failingTranslator struct{}

func (failingTranslator) Name() string { return "broken" }
func (failingTranslator) Apply(core.Schedule, map[string]core.Entity) error {
	return errors.New("boom")
}

func TestIntrospectionHealthDegraded(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, failingTranslator{})
	if _, err := mw.Step(time.Second); err == nil {
		t.Fatal("expected a step error from the failing translator")
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for a degraded daemon", resp.StatusCode)
	}
	var v healthView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "degraded" {
		t.Errorf("status %q", v.Status)
	}
	if len(v.Bindings) != 1 || v.Bindings[0].LastError == "" {
		t.Errorf("bindings = %+v", v.Bindings)
	}
}

func TestIntrospectionAuditEndpoint(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	if _, err := mw.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/audit?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v struct {
		Total  int64             `json:"total"`
		Events []core.AuditEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if len(v.Events) == 0 || len(v.Events) > 2 {
		t.Fatalf("got %d events, want 1..2", len(v.Events))
	}
	if v.Total < int64(len(v.Events)) {
		t.Errorf("total %d < returned %d", v.Total, len(v.Events))
	}
	// One step over two static entities renices both threads.
	found := false
	for _, e := range v.Events {
		if e.Kind == core.AuditKindNice && e.Thread != 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no nice event in tail: %+v", v.Events)
	}

	bad, err := http.Get(srv.URL + "/debug/audit?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", bad.StatusCode)
	}
}

// TestIntrospectFlagStartsServer exercises the run() wiring end to end: a
// one-iteration dry run with -introspect on an ephemeral port must
// announce the listen address.
func TestIntrospectFlagStartsServer(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	var out, errOut bytes.Buffer
	err := run([]string{"-config", cfg, "-iterations", "1", "-introspect", "127.0.0.1:0"}, &out, &errOut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "introspection listening on http://127.0.0.1:") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// TestAuditFlagWritesJSONL checks the -audit flag: every control decision
// of the run lands in the JSONL file.
func TestAuditFlagWritesJSONL(t *testing.T) {
	cfg := writeConfig(t, validConfig)
	path := t.TempDir() + "/audit.jsonl"
	var out, errOut bytes.Buffer
	if err := run([]string{"-config", cfg, "-iterations", "1", "-audit", path}, &out, &errOut, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	nices := 0
	for i, line := range lines {
		var e core.AuditEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if e.Kind == core.AuditKindNice {
			nices++
		}
	}
	if nices != 2 {
		t.Errorf("want 2 audited renices (both configured threads), got %d in %d lines", nices, len(lines))
	}
}

// TestIntrospectionHealthReconcileView: with the reconciler enabled,
// /health carries the drift/convergence summary the operators watch.
func TestIntrospectionHealthReconcileView(t *testing.T) {
	mw, trail, osIface := newTestDaemon(t, nil)
	state, err := reconcile.NewDesiredState(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := reconcile.New(reconcile.Config{OS: osIface, State: state})
	if _, err := mw.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail, rec: rec, state: state}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v healthView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Reconcile == nil {
		t.Fatal("reconcile view missing from /health")
	}
	if v.Reconcile.Passes != 0 || v.Reconcile.EverConverged {
		t.Errorf("reconcile view = %+v", v.Reconcile)
	}
	if v.Reconcile.LastConvergedAtNs != -1 {
		t.Errorf("last_converged_at_ns = %d, want -1 before first convergence", v.Reconcile.LastConvergedAtNs)
	}
}

// TestPolicyRolloutEndpoint: POST /policy stages a candidate through the
// canary controller, a second POST while the rollout is in flight is
// rejected, and /health carries the rollout and watchdog views.
func TestPolicyRolloutEndpoint(t *testing.T) {
	ctl, err := oslinux.New(oslinux.Config{
		Root:    "/cg/lachesis",
		System:  oslinux.DryRunSystem{W: io.Discard},
		Version: oslinux.V1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trail := core.NewAuditTrail(0, nil)
	drv := &staticDriver{entities: []core.Entity{
		{Name: "q.count.0", Driver: "static", Query: "q", Thread: 101, Logical: []string{"count"}},
		{Name: "q.toll.0", Driver: "static", Query: "q", Thread: 102, Logical: []string{"toll"}},
	}}
	mw := core.NewMiddleware(nil)
	mw.SetAudit(trail)
	canary := guard.NewCanary(guard.Config{Window: 2})
	canary.SetAudit(trail)
	canary.SetProvider(mw.Provider())
	wd := guard.NewWatchdog(guard.WatchdogConfig{Fetch: time.Second})
	slot := canary.Slot(buildPolicy(map[string]float64{"count": 10, "toll": 1}, "nice"))
	if err := mw.Bind(core.Binding{
		Policy:     slot,
		Translator: core.NewNiceTranslator(core.AuditOS(ctl, trail)),
		Drivers:    []core.Driver{drv},
		Period:     time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	propose := func(raw []byte, parent span.Context) error {
		var pc policyConfig
		if err := json.Unmarshal(raw, &pc); err != nil {
			return err
		}
		if len(pc.Priorities) == 0 {
			return errors.New("policy has no priorities")
		}
		return canary.ProposeCtx(0, "http-test", buildPolicy(pc.Priorities, "nice"), raw, parent)
	}
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{
		mu: &mu, mw: mw, trail: trail, canary: canary, wd: wd, propose: propose,
	}))
	defer srv.Close()

	// Idle controller: GET /policy reports no active rollout.
	resp, err := http.Get(srv.URL + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	var st guard.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Active {
		t.Errorf("rollout active before any proposal: %+v", st)
	}

	// Stage a candidate.
	resp, err = http.Post(srv.URL+"/policy", "application/json",
		strings.NewReader(`{"priorities": {"count": 1, "toll": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /policy status %d", resp.StatusCode)
	}
	if !st.Active || st.Candidate != "http-test" {
		t.Errorf("rollout not staged: %+v", st)
	}

	// A second proposal while one is in flight must be rejected.
	resp, err = http.Post(srv.URL+"/policy", "application/json",
		strings.NewReader(`{"priorities": {"count": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("concurrent POST /policy status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	// /health carries rollout and watchdog views.
	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var hv healthView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hv.Rollout == nil || !hv.Rollout.Active {
		t.Errorf("health rollout view = %+v", hv.Rollout)
	}
	if hv.Watchdog == nil || hv.Watchdog.Degraded {
		t.Errorf("health watchdog view = %+v", hv.Watchdog)
	}

	// Two clean cycles promote the candidate (window 2, no SLO sampler).
	for i := 1; i <= 2; i++ {
		mu.Lock()
		if _, err := mw.Step(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
		canary.Tick(time.Duration(i) * time.Second)
		mu.Unlock()
	}
	resp, err = http.Get(srv.URL + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Active || st.LastDecision != guard.DecisionPromoted || st.Promotions != 1 {
		t.Errorf("rollout not promoted: %+v", st)
	}
}

// TestPprofGatedByFlag: the profiler endpoints exist only when -pprof is
// given — an introspection server must never expose them by accident.
func TestPprofGatedByFlag(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	var mu sync.Mutex

	off := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail, pprofEnabled: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%s", body)
	}
}

// TestDebugTraceEndpoint: /debug/trace serves the recorder's recent
// spans, filters by ?trace=, bounds the tail with ?n=, and 404s when no
// recorder is wired.
func TestDebugTraceEndpoint(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	spans := span.New(span.Config{Process: "lachesisd", Seed: 7})
	mw.SetSpans(spans)
	for i := 1; i <= 3; i++ {
		if _, err := mw.Step(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail, spans: spans}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var v traceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Total < 3 || len(v.Spans) == 0 {
		t.Fatalf("trace view = total %d, %d spans, want >= 3 cycles", v.Total, len(v.Spans))
	}
	if v.LastTrace == "" {
		t.Fatal("no last_trace in view")
	}

	// Filter down to the most recent cycle's trace.
	resp, err = http.Get(srv.URL + "/debug/trace?trace=" + v.LastTrace)
	if err != nil {
		t.Fatal(err)
	}
	var one traceView
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Trace != v.LastTrace || len(one.Spans) == 0 {
		t.Fatalf("filtered view = %+v", one)
	}
	for _, sp := range one.Spans {
		if sp.Trace != v.LastTrace {
			t.Errorf("span %s from trace %s leaked into the filter", sp.ID, sp.Trace)
		}
	}

	// ?n= bounds the unfiltered tail.
	resp, err = http.Get(srv.URL + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var tail traceView
	if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tail.Spans) != 1 {
		t.Errorf("n=1 returned %d spans", len(tail.Spans))
	}

	// Without a recorder the endpoint does not exist.
	bare := httptest.NewServer(newIntrospectionHandler(introspectionDeps{mu: &mu, mw: mw, trail: trail}))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no recorder: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsBuildInfoAndUptime: /metrics carries the build_info gauge
// and a scrape-time-refreshed uptime when run() registers them.
func TestMetricsBuildInfoAndUptime(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	telemetry.RegisterBuildInfo(mw.Telemetry(), "lachesisd")
	var mu sync.Mutex
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{
		mu: &mu, mw: mw, trail: trail, start: time.Now().Add(-3 * time.Second),
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := string(body)
	if !strings.Contains(s, telemetry.MetricBuildInfo) || !strings.Contains(s, `component="lachesisd"`) {
		t.Errorf("metrics missing build info:\n%s", s)
	}
	if !strings.Contains(s, `go_version="go`) {
		t.Errorf("build info missing go_version label:\n%s", s)
	}
	if !strings.Contains(s, telemetry.MetricUptimeSeconds) {
		t.Fatalf("metrics missing uptime:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, telemetry.MetricUptimeSeconds+" ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v < 3 {
				t.Errorf("uptime %q, want >= 3s", line)
			}
		}
	}
}

func TestPolicyEndpointFencesStaleCoordinatorEpochs(t *testing.T) {
	mw, trail, _ := newTestDaemon(t, nil)
	gate, err := fleet.NewEpochGate("n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	gate.Observe(5) // this agent has already seen epoch 5

	var mu sync.Mutex
	proposals := 0
	canary := guard.NewCanary(guard.Config{Window: 2})
	srv := httptest.NewServer(newIntrospectionHandler(introspectionDeps{
		mu: &mu, mw: mw, trail: trail, canary: canary,
		propose: func([]byte, span.Context) error { proposals++; return nil },
		fence:   gate.Admit,
	}))
	defer srv.Close()

	post := func(epochHeader string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/policy",
			strings.NewReader(`{"priorities":{"count":5}}`))
		if err != nil {
			t.Fatal(err)
		}
		if epochHeader != "" {
			req.Header.Set(fleet.EpochHeader, epochHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A deposed coordinator's stale epoch is fenced before the payload
	// is ever staged.
	if code := post("4"); code != http.StatusForbidden {
		t.Fatalf("stale epoch POST = %d, want 403", code)
	}
	if proposals != 0 {
		t.Fatalf("proposals = %d after fenced push, want 0", proposals)
	}
	if gate.Rejected() != 1 {
		t.Fatalf("gate rejected = %d, want 1", gate.Rejected())
	}

	// A malformed header is a client error, not a fence.
	if code := post("not-a-number"); code != http.StatusBadRequest {
		t.Fatalf("bad header POST = %d, want 400", code)
	}
	if proposals != 0 {
		t.Fatalf("proposals = %d after bad header, want 0", proposals)
	}

	// The current epoch and unfenced local pushes are admitted.
	if code := post("5"); code != http.StatusAccepted {
		t.Fatalf("current epoch POST = %d, want 202", code)
	}
	if code := post(""); code != http.StatusAccepted {
		t.Fatalf("unfenced POST = %d, want 202", code)
	}
	if proposals != 2 {
		t.Fatalf("proposals = %d, want 2", proposals)
	}

	// A newer epoch ratchets the gate: the old leader is now fenced.
	if code := post("9"); code != http.StatusAccepted {
		t.Fatalf("newer epoch POST = %d, want 202", code)
	}
	if gate.Epoch() != 9 {
		t.Fatalf("gate epoch = %d, want 9", gate.Epoch())
	}
	if code := post("5"); code != http.StatusForbidden {
		t.Fatalf("previously-valid epoch POST = %d, want 403 after ratchet", code)
	}
}
