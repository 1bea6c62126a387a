package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/faults"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
)

// The fleet experiment validates the coordination layer end to end: a
// lachesis-fleet coordinator rolling a policy out across N simulated
// lachesisd agents, each a real core.Middleware with its own local canary
// controller, bindings, and last-good policy store. Two runs back the two
// robustness claims of BENCH_fleet.json:
//
//   - containment: an adversarial inverse-priority candidate is staged on
//     the canary cohort only. Each cohort node's OWN canary cannot see the
//     damage (its canary and control bindings share one node-wide SLO, so
//     the relative verdict cancels) — but the fleet coordinator compares
//     cohort nodes against control NODES, catches the SLO delta, and rolls
//     the cohort back. Non-cohort nodes never receive a single byte of the
//     bad policy. A partitioned cohort agent additionally exercises the
//     fan-out's retry/breaker path: it is degraded out of the wave, its
//     lease is evicted, and it keeps enforcing its last-good autonomously.
//
//   - restart: the coordinator is killed mid-rollout of a good candidate
//     and restarted from its persisted state. Agents keep stepping on
//     their own through the downtime; the resumed rollout converges to
//     promotion without pushing any agent twice and without clobbering
//     any agent's last-good policy.

const (
	// fleetAgents x fleetNodeBindings sizes the simulated fleet: 8 agents
	// x 40 bindings = 320 bindings under coordination.
	fleetAgents       = 8
	fleetNodeBindings = 40
	// fleetLocalWindow is each agent's own canary window (decision
	// cycles); deliberately short, so local rollouts resolve well inside
	// one fleet observation window.
	fleetLocalWindow = 2
	// fleetBaseP95 / fleetBaseTput are the per-node SLO baseline.
	fleetBaseP95  = 0.010 // seconds
	fleetBaseTput = 1000  // tuples/s
	// fleetContainFactor is the acceptance bound: every non-cohort node's
	// peak p95 must stay within this factor of its baseline while the
	// cohort degrades and rolls back.
	fleetContainFactor = 2.0
	// fleetMaxTicks bounds each driven rollout.
	fleetMaxTicks = 60
)

// fleetGoodPayload / fleetAdvPayload are the policy payloads the
// coordinator pushes: the agents' POST /policy format. The adversarial
// candidate inverts the heavy/light priority ordering, the signature the
// SLO model turns into unbounded backlog.
var (
	fleetGoodPayload = []byte(`{"priorities":{"heavy":10,"light":1},"origin":"fleet","version":"v-good"}`)
	fleetAdvPayload  = []byte(`{"priorities":{"heavy":1,"light":10},"origin":"fleet","version":"v-adv"}`)
	fleetV2Payload   = []byte(`{"priorities":{"heavy":12,"light":2},"origin":"fleet","version":"v2"}`)
)

// memOS is the agents' OS binding: it records nice values and ignores
// cgroup operations (the SLO model reads the nices back).
type memOS struct {
	mu    sync.Mutex
	nices map[int]int
}

func newMemOS() *memOS { return &memOS{nices: make(map[int]int)} }

func (o *memOS) SetNice(tid, nice int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nices[tid] = nice
	return nil
}
func (o *memOS) EnsureCgroup(string) error    { return nil }
func (o *memOS) SetShares(string, int) error  { return nil }
func (o *memOS) MoveThread(int, string) error { return nil }
func (o *memOS) nice(tid int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nices[tid]
}

// memPolicyStore is an in-memory guard.PolicyStore, so the experiment can
// assert exactly what each agent holds as its last-good policy.
type memPolicyStore struct {
	mu   sync.Mutex
	raw  []byte
	have bool
}

func (s *memPolicyStore) SaveLastGoodPolicy(config []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raw = append([]byte(nil), config...)
	s.have = true
	return nil
}

func (s *memPolicyStore) LoadLastGoodPolicy() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.raw...), s.have, nil
}

// fleetNodeDriver exposes a node's physical operators; the static
// policies fetch no metrics.
type fleetNodeDriver struct {
	entities []core.Entity
}

var _ core.Driver = (*fleetNodeDriver)(nil)

func (d *fleetNodeDriver) Name() string            { return "node" }
func (d *fleetNodeDriver) Entities() []core.Entity { return d.entities }
func (d *fleetNodeDriver) Provides(string) bool    { return false }
func (d *fleetNodeDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	return nil, &core.UnknownMetricError{Metric: metric, Driver: "node"}
}

// fleetNodePolicy builds a named static heavy/light policy (the same
// high-level-policy + transformation-rule path lachesisd runs).
func fleetNodePolicy(name string, pri core.LogicalSchedule) core.Policy {
	return core.Transformed(&core.StaticLogicalPolicy{
		PolicyName: name, Priorities: pri,
	}, core.MaxPriorityRule)
}

// simNode is one simulated lachesisd agent: a real middleware with
// fleetNodeBindings bindings (each one heavy + one light operator), a
// local canary controller fed by a node-wide SLO model, and an in-memory
// last-good policy store. It implements fleet.AgentClient directly — the
// coordinator talks to it the way it would POST to a live daemon.
//
// The SLO model: each binding whose heavy operator is niced weaker than
// its light one is "inverted" and contributes backlog; node p95 grows as
// baseP95 * (1 + backlog) and throughput shrinks by the same factor. A
// node enforcing a sane policy drains one backlog unit per cycle.
type simNode struct {
	id string

	// mu serializes everything: the node's decision cycle (tick) and the
	// coordinator's AgentClient calls, exactly like lachesisd's step/HTTP
	// mutex. All canary entry points hold mu, so the canary's sampler and
	// policy-store callbacks run under it by construction.
	mu        sync.Mutex
	mw        *core.Middleware
	canary    *guard.Canary
	store     *memPolicyStore
	osi       *memOS
	gate      *fleet.EpochGate
	pairs     [][2]int // per binding: heavy tid, light tid
	now       time.Duration
	backlog   float64
	peak      float64 // peak p95 factor observed
	proposals []string
	stepErrs  int
}

var (
	_ fleet.AgentClient = (*simNode)(nil)
	_ fleet.TracedAgent = (*simNode)(nil)
	_ fleet.FencedAgent = (*simNode)(nil)
)

func newSimNode(id string, bindings int) (*simNode, error) {
	return newSimNodeWindow(id, bindings, fleetLocalWindow)
}

// newSimNodeWindow builds a node with a custom local canary window (the
// failover experiment needs local rollouts to outlive a coordinator
// failover, so the standby's stale re-push meets the idempotent 409
// handshake instead of restaging a finished candidate).
func newSimNodeWindow(id string, bindings, window int) (*simNode, error) {
	n := &simNode{id: id, osi: newMemOS(), store: &memPolicyStore{}, peak: 1}
	n.gate, _ = fleet.NewEpochGate(id, nil)
	n.mw = core.NewMiddleware(nil)
	n.canary = guard.NewCanary(guard.Config{Fraction: 0.5, Window: window})
	n.canary.SetSampler(func([]string) guard.SLOSample { return n.sloLocked() })
	n.canary.SetPolicyStore(n.store)
	drv := &fleetNodeDriver{}
	tr := core.NewNiceTranslator(n.osi)
	good := core.LogicalSchedule{"heavy": 10, "light": 1}
	for b := 0; b < bindings; b++ {
		q := fmt.Sprintf("q%03d", b)
		hTid, lTid := 2*b+1, 2*b+2
		drv.entities = append(drv.entities,
			core.Entity{Name: q + ".heavy", Driver: "node", Query: q, Thread: hTid, Logical: []string{"heavy"}},
			core.Entity{Name: q + ".light", Driver: "node", Query: q, Thread: lTid, Logical: []string{"light"}},
		)
		n.pairs = append(n.pairs, [2]int{hTid, lTid})
		slot := n.canary.Slot(fleetNodePolicy(fmt.Sprintf("good@%s/%s", id, q), good))
		if err := n.mw.Bind(core.Binding{
			Policy: slot, Translator: tr,
			Drivers: []core.Driver{drv}, Queries: []string{q},
			Period: time.Second,
		}); err != nil {
			return nil, fmt.Errorf("%s: bind %s: %w", id, q, err)
		}
	}
	return n, nil
}

// sloLocked is the node-wide SLO sample (caller holds n.mu — the canary
// invokes it from Propose and Tick, both entered under the node mutex).
// Canary and control bindings share it, which is precisely why the LOCAL
// canary cannot convict a node-wide degradation: the relative verdict
// cancels, and catching it is the fleet coordinator's job.
func (n *simNode) sloLocked() guard.SLOSample {
	f := 1 + n.backlog
	return guard.SLOSample{LatencyP95: fleetBaseP95 * f, Throughput: fleetBaseTput / f, OK: true}
}

// tick runs one decision cycle: apply policies, update the SLO model
// from the resulting nice ordering, then advance the local canary.
func (n *simNode) tick(now time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.now = now
	if _, err := n.mw.Step(now); err != nil {
		n.stepErrs++
	}
	inv := n.invertedLocked()
	if inv > 0 {
		n.backlog += float64(inv) / float64(len(n.pairs))
	} else if n.backlog > 0 {
		if n.backlog--; n.backlog < 0 {
			n.backlog = 0
		}
	}
	if f := 1 + n.backlog; f > n.peak {
		n.peak = f
	}
	n.canary.Tick(now)
}

func (n *simNode) invertedLocked() int {
	inv := 0
	for _, p := range n.pairs {
		if n.osi.nice(p[0]) > n.osi.nice(p[1]) {
			inv++
		}
	}
	return inv
}

// Propose implements fleet.AgentClient: the agent-side POST /policy.
// The payload is lachesisd's policyConfig shape — a version names the
// candidate (the coordinator's idempotency handshake), and a rollout
// already in flight answers with a conflict, never a displacement.
func (n *simNode) Propose(payload []byte) (guard.Status, error) {
	return n.ProposeTraced(payload, "")
}

// ProposeTraced implements fleet.TracedAgent: the coordinator's trace
// context arrives out-of-band (what the Traceparent header carries to a
// live daemon) and parents the local canary's stage span, so one trace
// spans coordinator push -> agent canary -> verdict. Payload bytes are
// untouched; a malformed or empty traceparent degrades to Propose.
func (n *simNode) ProposeTraced(payload []byte, traceparent string) (guard.Status, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pc struct {
		Priorities map[string]float64 `json:"priorities"`
		Version    string             `json:"version"`
	}
	if err := json.Unmarshal(payload, &pc); err != nil {
		return guard.Status{}, err
	}
	if len(pc.Priorities) == 0 {
		return guard.Status{}, errors.New("policy has no priorities")
	}
	name := pc.Version
	if name == "" {
		name = fmt.Sprintf("reload-%d", len(n.proposals)+1)
	}
	cand := fleetNodePolicy(name, core.LogicalSchedule(pc.Priorities))
	parent, _ := span.ParseTraceparent(traceparent)
	if err := n.canary.ProposeCtx(n.now, name, cand, payload, parent); err != nil {
		return guard.Status{}, &fleet.ConflictError{Agent: n.id, Body: err.Error()}
	}
	n.proposals = append(n.proposals, string(payload))
	return n.canary.Status(), nil
}

// ProposeFenced implements fleet.FencedAgent: the agent-side fencing
// check lachesisd runs on POST /policy's X-Lachesis-Epoch header. An
// epoch below the highest this node has witnessed is rejected with
// *fleet.FencedError before the payload is even parsed — a deposed
// coordinator's stale push never stages anything.
func (n *simNode) ProposeFenced(payload []byte, traceparent string, epoch int64) (guard.Status, error) {
	if err := n.gate.Admit(epoch); err != nil {
		return guard.Status{}, err
	}
	return n.ProposeTraced(payload, traceparent)
}

// Status implements fleet.AgentClient.
func (n *simNode) Status() (guard.Status, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.canary.Status(), nil
}

// SLO implements fleet.AgentClient: the coordinator's /metrics scrape.
func (n *simNode) SLO() (guard.SLOSample, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sloLocked(), nil
}

func (n *simNode) peakFactor() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peak
}

func (n *simNode) inverted() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.invertedLocked()
}

func (n *simNode) proposalCount(payload []byte) (of, total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.proposals {
		if p == string(payload) {
			of++
		}
	}
	return of, len(n.proposals)
}

func (n *simNode) lastGood() []byte {
	raw, ok, _ := n.store.LoadLastGoodPolicy()
	if !ok {
		return nil
	}
	return raw
}

func (n *simNode) stepErrors() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stepErrs
}

// simFleet wires agents, registry, and coordinator, and drives their
// shared virtual clock one second per tick.
type simFleet struct {
	nodes map[string]*simNode
	order []string
	conns fleet.ConnFactory
	reg   *fleet.Registry
	co    *fleet.Coordinator
	now   time.Duration
	// hbDown marks agents whose heartbeats are lost (network partition:
	// both directions go dark).
	hbDown map[string]bool
	// overrides swaps an agent's client for a fault-injecting wrapper.
	overrides map[string]fleet.AgentClient
}

func fleetRegistryConfig() fleet.RegistryConfig {
	return fleet.RegistryConfig{HeartbeatInterval: time.Second, SuspectAfter: 2, EvictAfter: 5}
}

func fleetRolloutConfig() fleet.RolloutConfig {
	return fleet.RolloutConfig{
		CanaryFraction: 0.25, Waves: 2, WindowTicks: 6, PushTicks: 3,
		Fanout: fleet.FanoutConfig{
			Attempts: 2, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second,
			Sleep: func(time.Duration) {},
		},
	}
}

func newSimFleet(agents, bindings int) (*simFleet, error) {
	f := &simFleet{nodes: make(map[string]*simNode), hbDown: make(map[string]bool)}
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := newSimNode(id, bindings)
		if err != nil {
			return nil, err
		}
		f.nodes[id] = n
		f.order = append(f.order, id)
	}
	// The factory resolves through the overrides map on every call, so a
	// fault wrapper installed mid-run (a partition) takes effect on the
	// coordinator's next push even though the coordinator captured the
	// factory at construction.
	f.overrides = make(map[string]fleet.AgentClient)
	f.conns = func(a fleet.AgentRecord) fleet.AgentClient {
		if c, ok := f.overrides[a.ID]; ok {
			return c
		}
		return f.nodes[a.ID]
	}
	return f, nil
}

// start builds a registry and coordinator (optionally persistent) and
// registers every agent.
func (f *simFleet) start(store *fleet.Store) error {
	f.reg = fleet.NewRegistry(fleetRegistryConfig())
	if store != nil {
		f.reg.SetStore(store)
	}
	for _, id := range f.order {
		if _, err := f.reg.Register(f.now, id, id); err != nil {
			return err
		}
	}
	f.co = fleet.NewCoordinator(fleetRolloutConfig(), f.reg, f.conns)
	if store != nil {
		f.co.SetStore(store)
	}
	return nil
}

// restart stands up a fresh coordinator from persisted state — the
// crash-recovery path. The agents are untouched.
func (f *simFleet) restart(store *fleet.Store) error {
	f.reg = fleet.NewRegistry(fleetRegistryConfig())
	f.reg.SetStore(store)
	if err := f.reg.Restore(f.now); err != nil {
		return err
	}
	f.co = fleet.NewCoordinator(fleetRolloutConfig(), f.reg, f.conns)
	f.co.SetStore(store)
	if _, err := f.co.Resume(f.now); err != nil {
		return err
	}
	return nil
}

// tick advances one fleet cycle: every agent steps on its own, live
// agents heartbeat, then the coordinator sweeps leases and drives the
// rollout. withCoordinator=false is coordinator downtime: the agents
// keep going exactly as before, because their decision cycles never
// depended on the coordinator being alive.
func (f *simFleet) tick(withCoordinator bool) {
	f.now += time.Second
	for _, id := range f.order {
		f.nodes[id].tick(f.now)
	}
	if !withCoordinator {
		return
	}
	for _, id := range f.order {
		if !f.hbDown[id] {
			_ = f.reg.Heartbeat(f.now, id)
		}
	}
	f.reg.Sweep(f.now)
	f.co.Tick(f.now)
}

// FleetContainment is the containment run's slice of BENCH_fleet.json.
type FleetContainment struct {
	Cohort        []string `json:"cohort"`
	RolledBack    bool     `json:"rolled_back"`
	Reason        string   `json:"rollback_reason"`
	RolloutTicks  int      `json:"rollout_ticks"`
	CohortPeak    float64  `json:"cohort_peak_p95_factor"`
	NonCohortPeak float64  `json:"noncohort_peak_p95_factor"`
	// NonCohortProposals counts adversarial payloads that reached any
	// node outside the canary cohort (must be 0: blast-radius proof).
	NonCohortProposals int `json:"noncohort_adversarial_proposals"`
	// CohortRestored: after the rollback drains, the cohort enforces the
	// stable policy again and holds it as last-good.
	CohortRestored bool `json:"cohort_restored"`
	// The partitioned cohort agent: the fan-out's breaker opened, the
	// lease was evicted, and the agent held its last-good throughout.
	PartitionedAgent        string `json:"partitioned_agent"`
	BreakerOpened           bool   `json:"breaker_opened"`
	PartitionedEvicted      bool   `json:"partitioned_evicted"`
	PartitionedKeptLastGood bool   `json:"partitioned_kept_last_good"`
	Contained               bool   `json:"contained"`
}

// FleetRestart is the coordinator-crash run's slice of BENCH_fleet.json.
type FleetRestart struct {
	KilledAfterTicks   int  `json:"killed_after_ticks"`
	DowntimeTicks      int  `json:"downtime_ticks"`
	DowntimeStepErrors int  `json:"downtime_step_errors"`
	ResumedActive      bool `json:"resumed_active"`
	ResumedAgents      int  `json:"resumed_agents"`
	Promoted           bool `json:"promoted"`
	// DoublePushes counts agents that received the candidate more than
	// once across the crash (must be 0: persisted push state).
	DoublePushes int `json:"double_pushes"`
	// ClobberedAgents counts agents whose last-good policy did not end up
	// at the promoted candidate (must be 0: no agent was reset).
	ClobberedAgents int  `json:"clobbered_agents"`
	Converged       bool `json:"converged"`
}

// FleetReport is the BENCH_fleet.json document.
type FleetReport struct {
	Experiment    string           `json:"experiment"`
	Agents        int              `json:"agents"`
	BindingsPer   int              `json:"bindings_per_agent"`
	BindingsTotal int              `json:"bindings_total"`
	Containment   FleetContainment `json:"containment"`
	Restart       FleetRestart     `json:"restart"`
	Accepted      bool             `json:"accepted"`
}

// runFleetContainment stages the adversarial candidate and measures the
// blast radius. One cohort agent is partitioned for the whole rollout.
func runFleetContainment(sc Scale) (FleetContainment, error) {
	out := FleetContainment{}
	f, err := newSimFleet(fleetAgents, fleetNodeBindings)
	if err != nil {
		return out, err
	}
	if err := f.start(nil); err != nil {
		return out, err
	}

	// Baseline: three clean cycles before the proposal.
	for i := 0; i < 3; i++ {
		f.tick(true)
	}

	// Partition one soon-to-be cohort agent (cohorts are the sorted
	// active ids, so n1/n2 canary): from here on, neither the fan-out
	// nor heartbeats reach n2. The faults wrapper marks every failure
	// transient, which is what drives the fan-out's retry + breaker path.
	const partitioned = "n2"
	partitionFrom := f.now
	inner := f.nodes[partitioned]
	f.overrides[partitioned] = faults.WrapAgent(inner, faults.AgentPlan{
		Partitions: faults.Windows{{From: partitionFrom, To: time.Hour}},
		Clock:      func() time.Duration { return f.now },
	})
	f.hbDown[partitioned] = true
	out.PartitionedAgent = partitioned

	if err := f.co.Propose(f.now, "v-adv", fleetAdvPayload, fleetGoodPayload); err != nil {
		return out, err
	}
	out.Cohort = f.co.Cohort(0)

	ticks := 0
	for ; ticks < fleetMaxTicks && f.co.Status().Active; ticks++ {
		f.tick(true)
		if f.co.Fanout().BreakerOpen(f.now, partitioned) {
			out.BreakerOpened = true
		}
	}
	st := f.co.Status()
	out.RolloutTicks = ticks
	out.RolledBack = !st.Active && st.LastDecision == guard.DecisionRolledBack
	out.Reason = st.LastReason

	// Drain: the restored stable policy un-inverts the cohort's bindings
	// and the backlog model recovers one unit per cycle.
	for i := 0; i < 10; i++ {
		f.tick(true)
	}

	cohort := map[string]bool{}
	for _, id := range out.Cohort {
		cohort[id] = true
	}
	out.CohortRestored = true
	for id, n := range f.nodes {
		peak := n.peakFactor()
		if cohort[id] {
			if peak > out.CohortPeak {
				out.CohortPeak = peak
			}
			if id != partitioned && (n.inverted() != 0 || string(n.lastGood()) != string(fleetGoodPayload)) {
				out.CohortRestored = false
			}
			continue
		}
		if peak > out.NonCohortPeak {
			out.NonCohortPeak = peak
		}
		adv, _ := n.proposalCount(fleetAdvPayload)
		out.NonCohortProposals += adv
	}
	if rec, ok := f.reg.Lookup(partitioned); ok {
		out.PartitionedEvicted = rec.State == fleet.LeaseEvicted
	}
	_, partTotal := inner.proposalCount(nil)
	out.PartitionedKeptLastGood = partTotal == 0 && inner.inverted() == 0

	out.Contained = out.RolledBack &&
		out.NonCohortPeak <= fleetContainFactor &&
		out.NonCohortProposals == 0 &&
		out.CohortRestored &&
		out.PartitionedKeptLastGood
	return out, nil
}

// runFleetRestart kills the coordinator mid-rollout of a good candidate
// and proves the resumed rollout converges without clobbering agents.
func runFleetRestart(sc Scale) (FleetRestart, error) {
	out := FleetRestart{}
	f, err := newSimFleet(fleetAgents, fleetNodeBindings)
	if err != nil {
		return out, err
	}
	mfs := reconcile.NewMemFS()
	store := fleet.NewStore(mfs, nil)
	if err := f.start(store); err != nil {
		return out, err
	}
	for i := 0; i < 3; i++ {
		f.tick(true)
	}
	if err := f.co.Propose(f.now, "v2", fleetV2Payload, fleetGoodPayload); err != nil {
		return out, err
	}
	// One cycle stages the canary cohort; then the coordinator "crashes"
	// (we simply stop ticking it — its state lives in the store).
	f.tick(true)
	out.KilledAfterTicks = 1

	out.DowntimeTicks = 5
	errsBefore := 0
	for _, n := range f.nodes {
		errsBefore += n.stepErrors()
	}
	for i := 0; i < out.DowntimeTicks; i++ {
		f.tick(false)
	}
	for _, n := range f.nodes {
		out.DowntimeStepErrors += n.stepErrors()
	}
	out.DowntimeStepErrors -= errsBefore

	// Warm restart from the persisted registry + rollout state.
	if err := f.restart(fleet.NewStore(mfs, nil)); err != nil {
		return out, err
	}
	st := f.co.Status()
	out.ResumedActive = st.Active && st.Version == "v2"
	out.ResumedAgents = len(f.reg.Active())

	for i := 0; i < fleetMaxTicks && f.co.Status().Active; i++ {
		f.tick(true)
	}
	// A few settle cycles so the last wave's local canaries promote.
	for i := 0; i < fleetLocalWindow+1; i++ {
		f.tick(true)
	}
	st = f.co.Status()
	out.Promoted = !st.Active && st.LastDecision == guard.DecisionPromoted

	for _, n := range f.nodes {
		v2, _ := n.proposalCount(fleetV2Payload)
		if v2 > 1 {
			out.DoublePushes++
		}
		if string(n.lastGood()) != string(fleetV2Payload) {
			out.ClobberedAgents++
		}
	}
	out.Converged = out.Promoted && out.ResumedActive &&
		out.ResumedAgents == fleetAgents &&
		out.DoublePushes == 0 && out.ClobberedAgents == 0 &&
		out.DowntimeStepErrors == 0
	return out, nil
}

// fleetExp runs both fleet scenarios and emits BENCH_fleet.json when an
// artifact directory is configured.
func fleetExp(w io.Writer, sc Scale) error {
	report := FleetReport{
		Experiment: "fleet", Agents: fleetAgents,
		BindingsPer:   fleetNodeBindings,
		BindingsTotal: fleetAgents * fleetNodeBindings,
	}
	if sc.Progress != nil {
		sc.Progress("fleet: containment (adversarial candidate vs canary cohort)")
	}
	var err error
	if report.Containment, err = runFleetContainment(sc); err != nil {
		return err
	}
	if sc.Progress != nil {
		sc.Progress("fleet: coordinator kill + warm restart mid-rollout")
	}
	if report.Restart, err = runFleetRestart(sc); err != nil {
		return err
	}
	report.Accepted = report.Containment.Contained && report.Restart.Converged

	c, r := report.Containment, report.Restart
	fmt.Fprintln(w, "# Fleet: coordinated rollout across simulated lachesisd agents")
	fmt.Fprintf(w, "%d agents x %d bindings = %d bindings; canary cohort %v; local canary window %d cycles\n",
		report.Agents, report.BindingsPer, report.BindingsTotal, c.Cohort, fleetLocalWindow)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "containment: rolled back %v in %d ticks (%s)\n", c.RolledBack, c.RolloutTicks, c.Reason)
	fmt.Fprintf(w, "  cohort peak p95 %.2fx, non-cohort peak %.2fx (bound %.1fx), adversarial pushes outside cohort: %d\n",
		c.CohortPeak, c.NonCohortPeak, fleetContainFactor, c.NonCohortProposals)
	fmt.Fprintf(w, "  cohort restored to last-good: %v; partitioned %s: breaker=%v evicted=%v kept-last-good=%v\n",
		c.CohortRestored, c.PartitionedAgent, c.BreakerOpened, c.PartitionedEvicted, c.PartitionedKeptLastGood)
	fmt.Fprintf(w, "restart: killed after %d tick(s) of rollout, %d downtime ticks (%d agent step errors)\n",
		r.KilledAfterTicks, r.DowntimeTicks, r.DowntimeStepErrors)
	fmt.Fprintf(w, "  resumed active=%v with %d agents; promoted=%v; double pushes %d; clobbered agents %d\n",
		r.ResumedActive, r.ResumedAgents, r.Promoted, r.DoublePushes, r.ClobberedAgents)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "contained: %v; restart converged: %v; accepted: %v\n",
		c.Contained, r.Converged, report.Accepted)
	fmt.Fprintln(w, "the fleet canary catches what each node's own canary cannot see (node-wide SLO")
	fmt.Fprintln(w, "deltas vs control nodes), and a coordinator crash never clobbers agent state.")

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_fleet.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	return nil
}
