package core

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Audit event kinds. Control-op kinds (nice, shares, move, restore,
// cgroup-remove) are produced by the AuditOS wrapper; decision kinds
// (apply, policy-error, quarantine, breaker, driver) by the middleware.
const (
	AuditKindNice         = "nice"
	AuditKindShares       = "shares"
	AuditKindMove         = "move"
	AuditKindRestore      = "restore"
	AuditKindCgroupRemove = "cgroup-remove"
	AuditKindApply        = "apply"
	AuditKindPolicyError  = "policy-error"
	AuditKindQuarantine   = "quarantine"
	AuditKindBreaker      = "breaker"
	// A driver event records a failed fetch (Outcome "stale-fallback: …"
	// when last-good values stood in). It precedes, in the trail, the
	// first apply of its cycle that read the driver.
	AuditKindDriver = "driver"
	// Reconciliation kinds: a drift event records that observed OS state
	// diverged from desired (Outcome carries the drift class); a repair
	// event records the reconciler's corrective re-apply.
	AuditKindDrift  = "drift"
	AuditKindRepair = "repair"
	// Guardrail kinds: a guard event records an invariant violation that
	// blocked a translated batch; a watchdog event records a cancelled
	// phase overrun; a canary event records a rollout decision
	// (proposed/promoted/rolled-back); a clamp event records a policy
	// output silently clamped into the valid nice range.
	AuditKindGuard    = "guard"
	AuditKindWatchdog = "watchdog"
	AuditKindCanary   = "canary"
	AuditKindClamp    = "clamp"
)

// AuditOutcomeOK marks a successful event; other outcomes carry breaker
// transition names or error text.
const AuditOutcomeOK = "ok"

// AuditEvent is one record of the decision-audit trail: why (and how) a
// policy changed a thread's nice, a cgroup's shares, or a thread's
// placement at a given step — the paper's evaluation relies on these
// decisions being cheap and correct, and the trail makes each one
// reconstructible after the fact.
type AuditEvent struct {
	// Seq is the event's position in the trail (monotonic from 1).
	Seq int64 `json:"seq"`
	// At is the middleware step time (virtual or wall, whatever drives
	// Step) the event belongs to, in nanoseconds.
	At time.Duration `json:"at_ns"`
	// Kind is one of the AuditKind constants.
	Kind string `json:"kind"`
	// Policy/Translator name the binding whose decision produced the
	// event.
	Policy     string `json:"policy,omitempty"`
	Translator string `json:"translator,omitempty"`
	// Entity is the scheduled operator, when the event targets one.
	Entity string `json:"entity,omitempty"`
	// Thread is the OS thread id of nice/move/restore events.
	Thread int `json:"thread,omitempty"`
	// Cgroup is the target group of shares/move/cgroup-remove events.
	Cgroup string `json:"cgroup,omitempty"`
	// Driver names the metric source of driver events.
	Driver string `json:"driver,omitempty"`
	// Old/New record the before/after value of the changed control knob.
	// Old pointers are nil when the previous value was unknown (first
	// touch of a thread or group).
	OldNice   *int   `json:"old_nice,omitempty"`
	NewNice   *int   `json:"new_nice,omitempty"`
	OldShares *int   `json:"old_shares,omitempty"`
	NewShares *int   `json:"new_shares,omitempty"`
	OldCgroup string `json:"old_cgroup,omitempty"`
	// Entities is the entity count of apply events.
	Entities int `json:"entities,omitempty"`
	// Outcome is AuditOutcomeOK, a breaker transition ("open",
	// "reopen", "closed"), or error text.
	Outcome string `json:"outcome,omitempty"`
}

// AuditSink receives every event recorded into an AuditTrail, in order.
// Sinks must be safe for use from whatever goroutine steps the middleware;
// the built-in sinks serialize internally.
type AuditSink interface {
	Emit(AuditEvent)
}

// auditCtx is the binding context the middleware installs around each
// translator apply, so control-op events recorded by AuditOS inherit the
// step time, binding names, and entity attribution. Several contexts can
// be active at once (pool workers bracket each binding's apply with its
// own context); events are matched to a context by the thread or cgroup
// they touch.
//
// A binding owns one context for its lifetime and re-arms it per apply.
// The context only points at the apply's entity map — binding-owned and
// read-only while the context is installed; the thread and cgroup indexes
// over it are built on the first lookup, because most applies record no
// control-op event at all. Everything but trail and end is guarded by
// trail.mu.
type auditCtx struct {
	trail *AuditTrail
	// end removes the context from the trail: the bracket's closing half,
	// bound once so installing a context allocates nothing.
	end func()

	at         time.Duration
	policy     string
	translator string
	entities   map[string]Entity

	indexed     bool
	entityByTID map[int]string
	// groups is the set of cgroup names this binding may touch: entity
	// names (per-op groups) and query names (per-query groups).
	groups map[string]bool
}

func newAuditCtx(t *AuditTrail, policy, translator string) *auditCtx {
	c := &auditCtx{
		trail: t, policy: policy, translator: translator,
		entityByTID: make(map[int]string),
		groups:      make(map[string]bool),
	}
	c.end = func() { t.endApply(c) }
	return c
}

// index builds the thread and cgroup indexes of the current apply's
// entities, once per apply. Caller holds trail.mu.
func (c *auditCtx) index() {
	if c.indexed {
		return
	}
	c.indexed = true
	clear(c.entityByTID)
	clear(c.groups)
	for name, ent := range c.entities {
		if ent.Thread != 0 {
			c.entityByTID[ent.Thread] = name
		}
		c.groups[name] = true
		if ent.Query != "" {
			c.groups[ent.Query] = true
		}
	}
}

// AuditTrail is a bounded ring buffer of audit events with an optional
// sink. The ring answers "what were the last K decisions" (the
// /debug/audit endpoint); the sink streams the full history (JSONL for
// the harness, in-memory for tests).
type AuditTrail struct {
	mu       sync.Mutex
	capacity int
	ring     []AuditEvent
	next     int
	count    int
	total    int64
	sink     AuditSink
	// ctxs are the active apply contexts. Sequential stepping keeps at
	// most one; the worker pool keeps one per in-flight binding.
	ctxs []*auditCtx
}

// DefaultAuditCapacity bounds the in-memory trail when no explicit
// capacity is given.
const DefaultAuditCapacity = 1024

// NewAuditTrail creates a trail keeping the last capacity events
// (capacity <= 0 selects DefaultAuditCapacity). sink may be nil.
func NewAuditTrail(capacity int, sink AuditSink) *AuditTrail {
	if capacity <= 0 {
		capacity = DefaultAuditCapacity
	}
	return &AuditTrail{
		capacity: capacity,
		ring:     make([]AuditEvent, capacity),
		sink:     sink,
	}
}

// resolveCtx matches an event to one of the active apply contexts. With a
// single active context (sequential stepping) it always matches; with
// several (parallel applies) the event's thread or cgroup identifies the
// binding that produced it.
func (t *AuditTrail) resolveCtx(e *AuditEvent) *auditCtx {
	switch len(t.ctxs) {
	case 0:
		return nil
	case 1:
		return t.ctxs[0]
	}
	if e.Thread != 0 {
		for _, c := range t.ctxs {
			c.index()
			if _, ok := c.entityByTID[e.Thread]; ok {
				return c
			}
		}
	}
	if e.Cgroup != "" {
		for _, c := range t.ctxs {
			c.index()
			if c.groups[e.Cgroup] {
				return c
			}
		}
	}
	return nil
}

// Record stamps the event with a sequence number and the active binding
// context (for fields the caller left empty), stores it in the ring, and
// forwards it to the sink.
func (t *AuditTrail) Record(e AuditEvent) {
	t.mu.Lock()
	if c := t.resolveCtx(&e); c != nil {
		if e.At == 0 {
			e.At = c.at
		}
		if e.Policy == "" {
			e.Policy = c.policy
		}
		if e.Translator == "" {
			e.Translator = c.translator
		}
		if e.Entity == "" && e.Thread != 0 {
			c.index()
			e.Entity = c.entityByTID[e.Thread]
		}
	}
	t.total++
	e.Seq = t.total
	t.ring[t.next] = e
	t.next = (t.next + 1) % t.capacity
	if t.count < t.capacity {
		t.count++
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink.Emit(e)
	}
}

// Last returns the most recent k events, oldest first. k <= 0 or beyond
// the retained window returns everything retained.
func (t *AuditTrail) Last(k int) []AuditEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k <= 0 || k > t.count {
		k = t.count
	}
	out := make([]AuditEvent, 0, k)
	start := t.next - k
	if start < 0 {
		start += t.capacity
	}
	for i := 0; i < k; i++ {
		out = append(out, t.ring[(start+i)%t.capacity])
	}
	return out
}

// Total returns how many events have been recorded over the trail's
// lifetime (>= the retained count).
func (t *AuditTrail) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Capacity returns the ring size.
func (t *AuditTrail) Capacity() int { return t.capacity }

// beginApply arms a binding's context for one translator apply over
// entities and installs it; c.end (endApply) removes it. Multiple contexts
// may be active concurrently (one per pool worker). entities must not be
// written while the context is installed.
func (t *AuditTrail) beginApply(c *auditCtx, at time.Duration, entities map[string]Entity) {
	t.mu.Lock()
	c.at = at
	c.entities = entities
	c.indexed = false
	t.ctxs = append(t.ctxs, c)
	t.mu.Unlock()
}

func (t *AuditTrail) endApply(c *auditCtx) {
	t.mu.Lock()
	for i, have := range t.ctxs {
		if have == c {
			t.ctxs = append(t.ctxs[:i], t.ctxs[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// --- sinks ---

// JSONLSink writes one JSON object per event — the durable decision-audit
// artifact format of the harness and lachesisd.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

var _ AuditSink = (*JSONLSink)(nil)

// NewJSONLSink creates a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements AuditSink.
func (s *JSONLSink) Emit(e AuditEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(e); err != nil && s.err == nil {
		s.err = err
	}
}

// Err returns the first write error, if any (audit writes are best-effort;
// a full disk must not take the scheduler down).
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MemorySink retains every event, for tests and programmatic cross-checks.
type MemorySink struct {
	mu     sync.Mutex
	events []AuditEvent
}

var _ AuditSink = (*MemorySink)(nil)

// Emit implements AuditSink.
func (s *MemorySink) Emit(e AuditEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []AuditEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AuditEvent, len(s.events))
	copy(out, s.events)
	return out
}

// ReplayNice folds an audit stream back into the kernel nice state it
// described: the final nice per thread, considering only successful
// nice writes. If the audit trail is complete, the result must equal
// the kernel's actual state exactly — the audit-replay equivalence the
// dst harness checks as an invariant, and the cross-check any external
// consumer of the decision-audit JSONL can run offline.
func ReplayNice(events []AuditEvent) map[int]int {
	out := make(map[int]int)
	for _, e := range events {
		if e.Kind == AuditKindNice && e.Outcome == AuditOutcomeOK && e.NewNice != nil {
			out[e.Thread] = *e.NewNice
		}
	}
	return out
}

// --- audited OS wrapper ---

// auditedOS records every effective control-state change flowing through
// an OSInterface into an AuditTrail. It tracks the last value it applied
// per knob so events carry old -> new transitions and redundant re-applies
// (same nice, same shares, same placement) are not recorded — the trail
// captures decisions, not periodic re-assertions.
//
// The value caches are mutex-guarded so one audited chain can be shared by
// concurrent apply workers; writes to the *same* knob are serialized by
// the middleware's per-driver gate, never by this wrapper.
type auditedOS struct {
	inner  OSInterface
	trail  *AuditTrail
	mu     sync.Mutex
	nices  map[int]int
	shares map[string]int
	placed map[int]string
}

// AuditOS wraps an OSInterface so every nice/shares/placement change is
// recorded into trail. The wrapper forwards the optional CgroupRemover and
// PlacementRestorer capabilities when (and only when meaningfully) the
// wrapped interface provides them; on a backend without them the calls
// succeed as no-ops.
func AuditOS(inner OSInterface, trail *AuditTrail) OSInterface {
	return &auditedOS{
		inner:  inner,
		trail:  trail,
		nices:  make(map[int]int),
		shares: make(map[string]int),
		placed: make(map[int]string),
	}
}

func intp(v int) *int { return &v }

// niceValues backs nicep: one shared, read-only int per nice level, so an
// audited renice allocates nothing. Consumers of AuditEvent read through
// OldNice/NewNice and must not write through them.
var niceValues = func() (t [niceMax - niceMin + 1]int) {
	for i := range t {
		t[i] = niceMin + i
	}
	return t
}()

// nicep returns a pointer to v for an event's OldNice/NewNice: into
// niceValues for a valid nice level, freshly boxed otherwise. The fallback
// boxes a copy so that v itself never escapes — returning &v would move
// it to the heap on every call, table hit or not.
func nicep(v int) *int {
	if v >= niceMin && v <= niceMax {
		return &niceValues[v-niceMin]
	}
	w := v
	return &w
}

func outcome(err error) string {
	if err == nil {
		return AuditOutcomeOK
	}
	return err.Error()
}

// SetNice implements OSInterface.
func (a *auditedOS) SetNice(tid, nice int) error {
	a.mu.Lock()
	old, known := a.nices[tid]
	a.mu.Unlock()
	err := a.inner.SetNice(tid, nice)
	if err == nil {
		if known && old == nice {
			return nil // no state change: not a decision worth auditing
		}
		a.mu.Lock()
		a.nices[tid] = nice
		a.mu.Unlock()
	}
	e := AuditEvent{Kind: AuditKindNice, Thread: tid, NewNice: nicep(nice), Outcome: outcome(err)}
	if known {
		e.OldNice = nicep(old)
	}
	a.trail.Record(e)
	return err
}

// EnsureCgroup implements OSInterface. Group creation is structural, not a
// scheduling decision, so it is not audited on its own — the following
// shares/move events carry the group name.
func (a *auditedOS) EnsureCgroup(name string) error {
	return a.inner.EnsureCgroup(name)
}

// SetShares implements OSInterface.
func (a *auditedOS) SetShares(name string, shares int) error {
	a.mu.Lock()
	old, known := a.shares[name]
	a.mu.Unlock()
	err := a.inner.SetShares(name, shares)
	if err == nil {
		if known && old == shares {
			return nil
		}
		a.mu.Lock()
		a.shares[name] = shares
		a.mu.Unlock()
	}
	e := AuditEvent{Kind: AuditKindShares, Cgroup: name, NewShares: intp(shares), Outcome: outcome(err)}
	if known {
		e.OldShares = intp(old)
	}
	a.trail.Record(e)
	return err
}

// MoveThread implements OSInterface.
func (a *auditedOS) MoveThread(tid int, name string) error {
	a.mu.Lock()
	old, known := a.placed[tid]
	a.mu.Unlock()
	err := a.inner.MoveThread(tid, name)
	if err == nil {
		if known && old == name {
			return nil
		}
		a.mu.Lock()
		a.placed[tid] = name
		a.mu.Unlock()
	}
	e := AuditEvent{Kind: AuditKindMove, Thread: tid, Cgroup: name, Outcome: outcome(err)}
	if known {
		e.OldCgroup = old
	}
	a.trail.Record(e)
	return err
}

// RemoveCgroup implements CgroupRemover when the wrapped OS does.
func (a *auditedOS) RemoveCgroup(name string) error {
	r, ok := a.inner.(CgroupRemover)
	if !ok {
		return nil
	}
	err := r.RemoveCgroup(name)
	if err == nil {
		a.mu.Lock()
		delete(a.shares, name)
		a.mu.Unlock()
	}
	a.trail.Record(AuditEvent{Kind: AuditKindCgroupRemove, Cgroup: name, Outcome: outcome(err)})
	return err
}

// InvalidateThread implements CacheInvalidator: the audit wrapper's own
// old-value caches lie after external interference, so the reconciler
// must be able to flush them before re-applying (otherwise the same-value
// suppression above would swallow the repair before it reached the
// kernel).
func (a *auditedOS) InvalidateThread(tid int) {
	a.mu.Lock()
	delete(a.nices, tid)
	delete(a.placed, tid)
	a.mu.Unlock()
	InvalidateThreadState(a.inner, tid)
}

// InvalidateCgroup implements CacheInvalidator.
func (a *auditedOS) InvalidateCgroup(name string) {
	a.mu.Lock()
	delete(a.shares, name)
	a.mu.Unlock()
	InvalidateCgroupState(a.inner, name)
}

// RestoreThread implements PlacementRestorer when the wrapped OS does.
func (a *auditedOS) RestoreThread(tid int) error {
	r, ok := a.inner.(PlacementRestorer)
	if !ok {
		return nil
	}
	err := r.RestoreThread(tid)
	e := AuditEvent{Kind: AuditKindRestore, Thread: tid, Outcome: outcome(err)}
	a.mu.Lock()
	if old, known := a.placed[tid]; known {
		e.OldCgroup = old
	}
	if err == nil {
		delete(a.placed, tid)
	}
	a.mu.Unlock()
	a.trail.Record(e)
	return err
}
