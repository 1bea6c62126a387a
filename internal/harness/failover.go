package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lachesis/internal/driver"
	"lachesis/internal/faults"
	"lachesis/internal/fleet"
)

// The failover experiment validates the coordinator HA layer end to
// end: two in-process lachesis-fleet replicas (leader a, standby b)
// over the same simulated agent fleet, with the lease, replication and
// fencing machinery running exactly the daemon's tick. Two runs back
// the two claims of BENCH_failover.json:
//
//   - failover: the leader is killed mid-wave while its replication
//     link was lagging (the standby's checkpoint predates the last
//     wave push). The standby waits out the lease TTL, promotes with a
//     bumped epoch, adopts the stale checkpoint, and completes the
//     rollout — the agents' idempotent 409 handshake absorbs the
//     re-push of the already-staged wave, so no agent stages the
//     candidate twice and every agent converges on it as last-good.
//
//   - split brain: the leader is partitioned from the standby AND the
//     agents but stays alive, still believing it leads. The standby
//     promotes; agent heartbeats fail over to it and ratchet the new
//     epoch fleet-wide within one heartbeat round. When the old
//     leader's link to the agents heals, every one of its stale pushes
//     is rejected with a fenced 403 (never staged), the fencing
//     feedback deposes it, and the healed replication link keeps it a
//     standby. Exactly one leader remains and no agent's last-good was
//     clobbered.

const (
	// failoverAgents x failoverBindings sizes the simulated fleet.
	failoverAgents   = 6
	failoverBindings = 12
	// failoverLocalWindow is each agent's local canary window, long
	// enough that a local rollout outlives a coordinator failover (the
	// stale re-push must meet a still-in-flight candidate).
	failoverLocalWindow = 8
	// failoverTTL is the leader lease TTL in virtual seconds (= ticks).
	failoverTTL = 3 * time.Second
	// failoverMaxTicks bounds each driven run.
	failoverMaxTicks = 120
)

// failoverV2Payload is the candidate the HA rollout promotes.
var failoverV2Payload = []byte(`{"priorities":{"heavy":12,"light":2},"origin":"fleet","version":"v2-ha"}`)

// failoverRolloutConfig: PushTicks is generous so a partitioned leader
// is still retrying its wave when the partition heals (the fencing
// moment), and the breaker threshold is out of reach so the retry path
// stays on plain pushes.
func failoverRolloutConfig() fleet.RolloutConfig {
	return fleet.RolloutConfig{
		CanaryFraction: 0.25, Waves: 2, WindowTicks: 5, PushTicks: 10,
		Fanout: fleet.FanoutConfig{
			Attempts: 2, BreakerThreshold: 100, BreakerCooldown: 30 * time.Second,
			Sleep: func(time.Duration) {},
		},
	}
}

// haReplica is one in-process lachesis-fleet coordinator: lease
// manager, registry, rollout coordinator, follower and replicator —
// the same wiring as fleetDaemon, ticked on the simulation's clock.
type haReplica struct {
	id  string
	sim *simHA

	lm   *fleet.LeaseManager
	reg  *fleet.Registry
	co   *fleet.Coordinator
	fol  *fleet.Follower
	repl *fleet.Replicator

	// overrides swaps agent clients for fault-injecting wrappers (this
	// replica's view of the agents only).
	overrides map[string]fleet.AgentClient
	// alive=false is a crashed replica: no ticks, peers' calls fail.
	alive bool
	// agentsCut mirrors the overrides partition for the heartbeat path.
	agentsCut bool

	failovers      int
	lastGood       []byte
	pending        []byte
	promotionsSeen int64
}

func newHAReplica(sim *simHA, id string, lead bool) *haReplica {
	r := &haReplica{id: id, sim: sim, alive: true, overrides: map[string]fleet.AgentClient{}}
	r.lm = fleet.NewLeaseManager(fleet.LeaseConfig{ID: id, TTL: failoverTTL})
	r.reg = fleet.NewRegistry(fleetRegistryConfig())
	conns := func(a fleet.AgentRecord) fleet.AgentClient {
		if c, ok := r.overrides[a.ID]; ok {
			return c
		}
		return sim.nodes[a.ID]
	}
	r.co = fleet.NewCoordinator(failoverRolloutConfig(), r.reg, conns)
	r.co.SetEpoch(r.lm.FenceEpoch)
	r.co.SetFencedHook(func(now time.Duration, agent string) { r.lm.Deposed(now, agent) })
	r.fol = fleet.NewFollower(nil)
	r.repl = fleet.NewReplicator()
	r.lastGood = fleetGoodPayload
	if lead {
		r.lm.Acquire(0)
	}
	return r
}

// tick is the daemon's tick: a standby observes peers and promotes on
// lease expiry; a leader renews, sweeps, advances the rollout, and
// publishes a checkpoint — unless a fenced push deposed it mid-tick.
func (r *haReplica) tick(now time.Duration) {
	if !r.alive {
		return
	}
	if !r.lm.Leading() {
		for _, name := range r.repl.Peers() {
			if pc := r.repl.Peer(name); pc != nil {
				if info, err := pc.Lease(); err == nil {
					r.lm.Observe(info, now)
				}
			}
		}
		if r.lm.Expired(now) {
			r.promote(now)
		}
		return
	}
	r.lm.Renew(now)
	r.reg.Sweep(now)
	r.co.Tick(now)
	st := r.co.Status()
	if st.Promotions > r.promotionsSeen && r.pending != nil {
		r.promotionsSeen = st.Promotions
		r.lastGood = r.pending
		r.pending = nil
	}
	if r.lm.Leading() {
		r.repl.Publish(now, fleet.Checkpoint{
			Lease:    r.lm.Info(),
			Registry: r.reg.Agents(),
			Rollout:  r.co.State(),
			LastGood: r.lastGood,
		})
	}
}

// promote is the standby takeover: bumped-epoch lease, registry leases
// re-anchored, rollout resumed from the last applied checkpoint.
func (r *haReplica) promote(now time.Duration) {
	r.lm.Acquire(now)
	r.failovers++
	if cp, ok := r.fol.Last(); ok {
		r.reg.Adopt(now, cp.Registry)
		if r.co.Adopt(now, cp.Rollout) {
			r.pending = cp.Rollout.Payload
		}
		if cp.LastGood != nil {
			r.lastGood = cp.LastGood
		}
		r.promotionsSeen = cp.Rollout.Promotions
	}
}

// cutAgents partitions this replica from every agent: pushes fail
// transiently (driving the fan-out retry path) and heartbeats go dark.
func (r *haReplica) cutAgents(from time.Duration) {
	r.agentsCut = true
	for id, n := range r.sim.nodes {
		r.overrides[id] = faults.WrapAgent(n, faults.AgentPlan{
			Partitions: faults.Windows{{From: from, To: from + time.Hour}},
			Clock:      r.sim.clock,
		})
	}
}

// healAgents removes the agent partition.
func (r *haReplica) healAgents() {
	r.agentsCut = false
	for id := range r.overrides {
		delete(r.overrides, id)
	}
}

// simPeer is one replica's in-process view of another: the PeerClient
// the HTTP layer would provide, mirroring the daemon's GET /lease and
// POST /replicate handlers (including the fenced replication check and
// the split-brain healing Observe).
type simPeer struct {
	sim *simHA
	to  *haReplica
}

var _ fleet.PeerClient = (*simPeer)(nil)

func (p *simPeer) Lease() (fleet.LeaseInfo, error) {
	if !p.to.alive {
		return fleet.LeaseInfo{}, driver.MarkTransient(fmt.Errorf("peer %s down", p.to.id))
	}
	return p.to.lm.Info(), nil
}

func (p *simPeer) Replicate(cp fleet.Checkpoint) error {
	if !p.to.alive {
		return driver.MarkTransient(fmt.Errorf("peer %s down", p.to.id))
	}
	now := p.sim.now
	p.to.lm.Observe(cp.Lease, now)
	if p.to.lm.Leading() {
		// Still leading after observing the sender's lease: the sender
		// is the stale one. Fence it (the daemon's 403).
		return &fleet.FencedError{Agent: p.to.id, Have: p.to.lm.Info().Epoch, Got: cp.Lease.Epoch}
	}
	if err := p.to.fol.Apply(cp); err != nil {
		return err
	}
	if cp.LastGood != nil {
		p.to.lastGood = cp.LastGood
	}
	return nil
}

// simHA drives two coordinator replicas over one simulated agent
// fleet on a shared virtual clock.
type simHA struct {
	nodes    map[string]*simNode
	order    []string
	replicas []*haReplica // [leader a, standby b]
	now      time.Duration
}

func (s *simHA) clock() time.Duration { return s.now }

func newSimHA() (*simHA, error) {
	s := &simHA{nodes: make(map[string]*simNode)}
	for i := 0; i < failoverAgents; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := newSimNodeWindow(id, failoverBindings, failoverLocalWindow)
		if err != nil {
			return nil, err
		}
		s.nodes[id] = n
		s.order = append(s.order, id)
	}
	a := newHAReplica(s, "a", true)
	b := newHAReplica(s, "b", false)
	a.repl.AddPeer("b", &simPeer{sim: s, to: b})
	b.repl.AddPeer("a", &simPeer{sim: s, to: a})
	s.replicas = []*haReplica{a, b}
	for _, id := range s.order {
		if _, err := a.reg.Register(0, id, id); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// tick advances one virtual second: agents step, each agent heartbeats
// the first reachable LEADING replica (a standby answers 503 — the
// beacon's failover path) and ratchets its fencing epoch from the
// heartbeat response, then the replicas tick in order.
func (s *simHA) tick() {
	s.now += time.Second
	for _, id := range s.order {
		s.nodes[id].tick(s.now)
	}
	for _, id := range s.order {
		for _, r := range s.replicas {
			if !r.alive || r.agentsCut || !r.lm.Leading() {
				continue
			}
			_ = r.reg.Heartbeat(s.now, id)
			s.nodes[id].gate.Observe(r.lm.FenceEpoch())
			break
		}
	}
	for _, r := range s.replicas {
		r.tick(s.now)
	}
}

// leaders counts replicas currently holding the lease.
func (s *simHA) leaders() int {
	n := 0
	for _, r := range s.replicas {
		if r.alive && r.lm.Leading() {
			n++
		}
	}
	return n
}

// wavePushed reports whether any agent of the leader's given cohort has
// staged the candidate (a successful push landed).
func (s *simHA) wavePushed(r *haReplica, wave int) bool {
	for _, id := range r.co.Cohort(wave) {
		if c, _ := s.nodes[id].proposalCount(failoverV2Payload); c > 0 {
			return true
		}
	}
	return false
}

// fencedRejects sums the agents' fencing-gate rejections.
func (s *simHA) fencedRejects() int64 {
	var n int64
	for _, node := range s.nodes {
		n += node.gate.Rejected()
	}
	return n
}

// settle runs enough extra ticks for the last wave's local canaries to
// promote, then tallies per-agent convergence.
func (s *simHA) settle() {
	for i := 0; i < failoverLocalWindow+2; i++ {
		s.tick()
	}
}

// tally counts double pushes (an agent staged the candidate more than
// once) and clobbered agents (last-good did not converge on it).
func (s *simHA) tally() (doublePushes, clobbered int) {
	for _, node := range s.nodes {
		c, _ := node.proposalCount(failoverV2Payload)
		if c > 1 {
			doublePushes++
		}
		if string(node.lastGood()) != string(failoverV2Payload) {
			clobbered++
		}
	}
	return doublePushes, clobbered
}

// FailoverRun is the leader-kill run's slice of BENCH_failover.json.
type FailoverRun struct {
	KilledAtTick int `json:"killed_at_tick"`
	// LaggedCheckpoints: replication failures injected before the kill
	// (the standby resumed from a stale checkpoint).
	LaggedCheckpoints int   `json:"lagged_checkpoints"`
	PromotedEpoch     int64 `json:"promoted_epoch"`
	// FailoverTicks: ticks from the kill until the standby led.
	FailoverTicks int  `json:"failover_ticks"`
	Promoted      bool `json:"promoted"`
	// ConvergenceHeartbeats: heartbeat rounds from the kill until every
	// agent held the candidate as last-good.
	ConvergenceHeartbeats int  `json:"convergence_heartbeats"`
	ConvergenceBound      int  `json:"convergence_bound"`
	DoublePushes          int  `json:"double_pushes"`
	ClobberedAgents       int  `json:"clobbered_agents"`
	Converged             bool `json:"converged"`
}

// SplitBrainRun is the partitioned-leader run's slice of
// BENCH_failover.json.
type SplitBrainRun struct {
	PartitionedAtTick int   `json:"partitioned_at_tick"`
	PromotedEpoch     int64 `json:"promoted_epoch"`
	// EpochRatchetHeartbeats: heartbeat rounds after promotion until
	// every agent had ratcheted to the new epoch.
	EpochRatchetHeartbeats int `json:"epoch_ratchet_heartbeats"`
	// FencedWritesRejected: stale pushes from the deposed leader the
	// agents' fencing gates rejected (must be > 0: the old leader DID
	// try, and was fenced).
	FencedWritesRejected int64 `json:"fenced_writes_rejected"`
	// OldLeaderFencedPushes: the deposed leader's own count of fenced
	// outcomes (its step-down evidence).
	OldLeaderFencedPushes int64 `json:"old_leader_fenced_pushes"`
	OldLeaderSteppedDown  bool  `json:"old_leader_stepped_down"`
	LeadersAtEnd          int   `json:"leaders_at_end"`
	Promoted              bool  `json:"promoted"`
	DoublePushes          int   `json:"double_pushes"`
	ClobberedAgents       int   `json:"clobbered_agents"`
	Fenced                bool  `json:"fenced"`
}

// FailoverReport is the BENCH_failover.json document.
type FailoverReport struct {
	Experiment string        `json:"experiment"`
	Agents     int           `json:"agents"`
	LeaseTTL   string        `json:"lease_ttl"`
	Failover   FailoverRun   `json:"failover"`
	SplitBrain SplitBrainRun `json:"split_brain"`
	Accepted   bool          `json:"accepted"`
}

// driveToWaveOneWindow ticks until the leader's canary wave is staged
// and its observation window is one tick from completing — the next
// leader tick pushes wave 1.
func driveToWaveOneWindow(s *simHA, r *haReplica) error {
	cfg := failoverRolloutConfig()
	for i := 0; i < failoverMaxTicks; i++ {
		st := r.co.Status()
		if st.Active && st.Wave == 0 && st.Phase == fleet.PhaseObserving && st.Ticks >= cfg.WindowTicks-1 {
			return nil
		}
		s.tick()
	}
	return fmt.Errorf("failover: wave 0 window never neared completion")
}

// runFailover kills the leader mid-wave under replication lag and
// proves the standby finishes the rollout exactly once.
func runFailover(sc Scale) (FailoverRun, error) {
	out := FailoverRun{}
	s, err := newSimHA()
	if err != nil {
		return out, err
	}
	a, b := s.replicas[0], s.replicas[1]
	for i := 0; i < 3; i++ {
		s.tick()
	}
	a.pending = failoverV2Payload
	if err := a.co.Propose(s.now, "v2-ha", failoverV2Payload, fleetGoodPayload); err != nil {
		return out, err
	}
	if err := driveToWaveOneWindow(s, a); err != nil {
		return out, err
	}

	// Replication lag: from here on, a's checkpoints to b are dropped
	// (lease observation still flows), so b's state will predate the
	// wave-1 push it is about to miss.
	lagged := faults.WrapPeer(&simPeer{sim: s, to: b}, faults.PeerPlan{
		ReplicationLag: faults.Windows{{From: s.now, To: s.now + time.Hour}},
		Clock:          s.clock,
	})
	a.repl.AddPeer("b", lagged)

	// Tick until the wave-1 push lands on the agents, then kill a: the
	// push is real, but b never saw the checkpoint recording it.
	for i := 0; i < failoverMaxTicks && !s.wavePushed(a, 1); i++ {
		s.tick()
	}
	if !s.wavePushed(a, 1) {
		return out, fmt.Errorf("failover: wave 1 never pushed")
	}
	a.alive = false
	out.KilledAtTick = int(s.now / time.Second)
	out.LaggedCheckpoints = lagged.Injected()

	killTick := s.now
	for i := 0; i < failoverMaxTicks && !b.lm.Leading(); i++ {
		s.tick()
	}
	if !b.lm.Leading() {
		return out, fmt.Errorf("failover: standby never promoted")
	}
	out.FailoverTicks = int((s.now - killTick) / time.Second)
	out.PromotedEpoch = b.lm.Info().Epoch

	for i := 0; i < failoverMaxTicks && b.co.Status().Active; i++ {
		s.tick()
	}
	s.settle()
	st := b.co.Status()
	out.Promoted = !st.Active && st.LastDecision == "promoted"
	out.DoublePushes, out.ClobberedAgents = s.tally()
	out.ConvergenceHeartbeats = int((s.now - killTick) / time.Second)
	cfg := failoverRolloutConfig()
	ttlTicks := int(failoverTTL / time.Second)
	out.ConvergenceBound = ttlTicks + cfg.Waves*(cfg.WindowTicks+cfg.PushTicks) +
		failoverLocalWindow + 10
	out.Converged = out.Promoted && out.PromotedEpoch > 1 && b.failovers == 1 &&
		out.DoublePushes == 0 && out.ClobberedAgents == 0 &&
		out.ConvergenceHeartbeats <= out.ConvergenceBound
	return out, nil
}

// runSplitBrain partitions a live leader away from standby and agents,
// lets the standby take over, then heals the links and proves every
// stale write was fenced.
func runSplitBrain(sc Scale) (SplitBrainRun, error) {
	out := SplitBrainRun{}
	s, err := newSimHA()
	if err != nil {
		return out, err
	}
	a, b := s.replicas[0], s.replicas[1]
	for i := 0; i < 3; i++ {
		s.tick()
	}
	a.pending = failoverV2Payload
	if err := a.co.Propose(s.now, "v2-ha", failoverV2Payload, fleetGoodPayload); err != nil {
		return out, err
	}
	if err := driveToWaveOneWindow(s, a); err != nil {
		return out, err
	}

	// The partition: a keeps running but loses both the standby link
	// and every agent link. Its wave-1 pushes now fail transiently and
	// retry each tick; b stops seeing a's lease.
	rawAtoB, rawBtoA := a.repl.Peer("b"), b.repl.Peer("a")
	cut := faults.PeerPlan{
		Partitions: faults.Windows{{From: s.now, To: s.now + time.Hour}},
		Clock:      s.clock,
	}
	a.repl.AddPeer("b", faults.WrapPeer(rawAtoB, cut))
	b.repl.AddPeer("a", faults.WrapPeer(rawBtoA, cut))
	a.cutAgents(s.now)
	out.PartitionedAtTick = int(s.now / time.Second)

	for i := 0; i < failoverMaxTicks && !b.lm.Leading(); i++ {
		s.tick()
	}
	if !b.lm.Leading() {
		return out, fmt.Errorf("split brain: standby never promoted")
	}
	out.PromotedEpoch = b.lm.Info().Epoch

	// One heartbeat round after promotion ratchets the new epoch into
	// every agent's fencing gate (heartbeat responses carry it).
	promotedAt := s.now
	for i := 0; i < failoverMaxTicks; i++ {
		all := true
		for _, node := range s.nodes {
			if node.gate.Epoch() < out.PromotedEpoch {
				all = false
				break
			}
		}
		if all {
			break
		}
		s.tick()
	}
	out.EpochRatchetHeartbeats = int((s.now - promotedAt) / time.Second)

	// Heal everything at once. Replica a ticks first, still believing
	// it leads: its wave-1 retries now REACH the agents, carry the old
	// epoch, and every one is rejected by the fencing gate — the
	// feedback deposes a mid-tick. b's next checkpoint then reaches a,
	// which stays a standby observing b's newer lease.
	a.healAgents()
	a.repl.AddPeer("b", rawAtoB)
	b.repl.AddPeer("a", rawBtoA)
	s.tick()
	out.FencedWritesRejected = s.fencedRejects()
	out.OldLeaderFencedPushes = a.co.Status().FencedPushes
	out.OldLeaderSteppedDown = !a.lm.Leading()

	for i := 0; i < failoverMaxTicks && b.co.Status().Active; i++ {
		s.tick()
	}
	s.settle()
	st := b.co.Status()
	out.Promoted = !st.Active && st.LastDecision == "promoted"
	out.LeadersAtEnd = s.leaders()
	out.DoublePushes, out.ClobberedAgents = s.tally()
	out.Fenced = out.FencedWritesRejected > 0 && out.OldLeaderSteppedDown &&
		out.LeadersAtEnd == 1 && out.Promoted &&
		out.DoublePushes == 0 && out.ClobberedAgents == 0
	return out, nil
}

// failoverExp runs both HA scenarios and emits BENCH_failover.json
// when an artifact directory is configured.
func failoverExp(w io.Writer, sc Scale) error {
	report := FailoverReport{
		Experiment: "failover", Agents: failoverAgents,
		LeaseTTL: failoverTTL.String(),
	}
	if sc.Progress != nil {
		sc.Progress("failover: leader kill mid-wave under replication lag")
	}
	var err error
	if report.Failover, err = runFailover(sc); err != nil {
		return err
	}
	if sc.Progress != nil {
		sc.Progress("failover: split brain (partitioned live leader vs promoted standby)")
	}
	if report.SplitBrain, err = runSplitBrain(sc); err != nil {
		return err
	}
	report.Accepted = report.Failover.Converged && report.SplitBrain.Fenced

	f, sb := report.Failover, report.SplitBrain
	fmt.Fprintln(w, "# Failover: coordinator HA with leader leases and fenced fan-out")
	fmt.Fprintf(w, "%d agents, lease ttl %s, local canary window %d cycles\n",
		report.Agents, report.LeaseTTL, failoverLocalWindow)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "failover: leader killed at tick %d (%d checkpoints lagged); standby led after %d ticks (epoch %d)\n",
		f.KilledAtTick, f.LaggedCheckpoints, f.FailoverTicks, f.PromotedEpoch)
	fmt.Fprintf(w, "  promoted=%v; converged in %d heartbeats (bound %d); double pushes %d; clobbered agents %d\n",
		f.Promoted, f.ConvergenceHeartbeats, f.ConvergenceBound, f.DoublePushes, f.ClobberedAgents)
	fmt.Fprintf(w, "split brain: live leader partitioned at tick %d; standby promoted (epoch %d), fleet ratcheted in %d heartbeats\n",
		sb.PartitionedAtTick, sb.PromotedEpoch, sb.EpochRatchetHeartbeats)
	fmt.Fprintf(w, "  stale writes fenced: %d rejected by agents (%d seen by old leader); old leader stepped down=%v; leaders at end=%d\n",
		sb.FencedWritesRejected, sb.OldLeaderFencedPushes, sb.OldLeaderSteppedDown, sb.LeadersAtEnd)
	fmt.Fprintf(w, "  promoted=%v; double pushes %d; clobbered agents %d\n",
		sb.Promoted, sb.DoublePushes, sb.ClobberedAgents)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "failover converged: %v; split brain fenced: %v; accepted: %v\n",
		f.Converged, sb.Fenced, report.Accepted)
	fmt.Fprintln(w, "a standby resumes an in-flight rollout exactly once (stale checkpoints meet the")
	fmt.Fprintln(w, "idempotent 409 handshake) and a deposed leader's writes cannot reach any agent.")

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_failover.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	return nil
}
