package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lachesis/internal/telemetry"
)

// Coalescer telemetry metric names.
const (
	// MetricCoalesceSuppressed counts control ops suppressed because the
	// kernel already carries the intended value.
	MetricCoalesceSuppressed = "lachesis_coalesce_suppressed_total"
	// MetricCoalesceIssued counts control ops that reached the wrapped
	// chain (survivors of the diff).
	MetricCoalesceIssued = "lachesis_coalesce_issued_total"
	// MetricCoalesceFlushes counts batched flushes.
	MetricCoalesceFlushes = "lachesis_coalesce_flushes_total"
)

// CoalescerSeed is a snapshot of the desired-state mirror (PR 3) used to
// warm a Coalescer's value caches: after a warm restart the reconciler has
// already converged the kernel onto the mirror, so the first decision
// cycle can diff against it instead of re-issuing every write.
// reconcile.(*DesiredState).CoalescerSeed produces one.
type CoalescerSeed struct {
	// Nices maps thread id -> desired nice.
	Nices map[int]int
	// Shares maps cgroup name -> desired cpu.shares.
	Shares map[string]int
	// Placements maps thread id -> desired cgroup.
	Placements map[int]string
}

// Coalescer suppresses no-op control writes before they descend the OS
// chain, and optionally batches the survivors per cgroup. It mirrors the
// last value it successfully applied per knob (optionally seeded from the
// desired-state mirror) and diffs each intended op against that mirror —
// the paper's "only write when the decision changes" argument, enforced at
// the top of the chain where a suppressed op costs a map lookup instead of
// a syscall.
//
// The mirror can go stale when something outside Lachesis rewrites kernel
// state; the reconciler's repair path fixes that by calling
// InvalidateThread/InvalidateCgroup (the CacheInvalidator capability)
// before re-applying, which marks the knob dirty and forces the next
// write through regardless of the mirror.
//
// In batch mode (Begin ... Flush around one translator apply), an op that
// is the first of its knob in the batch and already matches the mirror is
// suppressed on the spot; the rest are buffered last-wins per knob and
// flushed grouped per cgroup — ensure, then shares, then the moves into
// it — followed by renices, then removals/restores. Individual op calls
// return nil immediately; errors surface joined from Flush.
//
// A Coalescer is safe for concurrent use, but the intended deployment is
// one Coalescer per binding (set Binding.Coalescer), so per-binding
// batches never interleave.
type Coalescer struct {
	inner OSInterface

	mu     sync.Mutex
	nices  map[int]int
	shares map[string]int
	placed map[int]string
	groups map[string]bool
	// dirty knobs: external interference was repaired (or suspected), so
	// the next write must pass through even if it matches the mirror.
	dirtyNice  map[int]bool
	dirtyPlace map[int]bool
	dirtyGroup map[string]bool

	batching bool
	buf      *coalesceBatch
	// flush holds the Flush ordering scratch (group set, per-group move
	// lists, sorted keys), reused across flushes.
	flush coalesceFlushScratch
	// batchOps/batchErrs are the reused batch-submission scratch used when
	// the wrapped chain implements BatchApplier.
	batchOps  []ControlOp
	batchErrs []error

	suppressed atomic.Int64
	issued     atomic.Int64
	flushes    atomic.Int64

	ctrSuppressed *telemetry.Counter
	ctrIssued     *telemetry.Counter
	ctrFlushes    *telemetry.Counter
}

var (
	_ OSInterface       = (*Coalescer)(nil)
	_ CgroupRemover     = (*Coalescer)(nil)
	_ PlacementRestorer = (*Coalescer)(nil)
	_ CacheInvalidator  = (*Coalescer)(nil)
)

// coalesceBatch buffers one apply's ops, last-wins per knob.
type coalesceBatch struct {
	ensures  map[string]bool
	shares   map[string]int
	moves    map[int]string
	nices    map[int]int
	removes  map[string]bool
	restores map[int]bool
}

func newCoalesceBatch() *coalesceBatch {
	return &coalesceBatch{
		ensures:  make(map[string]bool),
		shares:   make(map[string]int),
		moves:    make(map[int]string),
		nices:    make(map[int]int),
		removes:  make(map[string]bool),
		restores: make(map[int]bool),
	}
}

// empty reports whether the batch holds no op.
func (b *coalesceBatch) empty() bool {
	return len(b.ensures)+len(b.shares)+len(b.moves)+len(b.nices)+len(b.removes)+len(b.restores) == 0
}

// reset clears the batch for reuse, retaining map buckets. The steady-state
// batch is already empty: every op was suppressed as it arrived.
func (b *coalesceBatch) reset() {
	if b.empty() {
		return
	}
	clear(b.ensures)
	clear(b.shares)
	clear(b.moves)
	clear(b.nices)
	clear(b.removes)
	clear(b.restores)
}

// coalesceFlushScratch is Flush's reusable ordering scratch. movesInto
// retains historical group keys with truncated slices (bounded by the
// group universe), so a stable group set refills without allocating; a
// flush truncates the lists it filled as it issues them (takeMoves), so
// between flushes every list is empty.
type coalesceFlushScratch struct {
	groupSet  map[string]bool
	movesInto map[string][]int
	tids      []int
	keys      []string
}

// takeMoves returns the threads this flush moves into g, sorted, and
// empties g's list for the next flush (the returned slice stays valid
// until then).
func (sc *coalesceFlushScratch) takeMoves(g string) []int {
	tids := sc.movesInto[g]
	if len(tids) > 0 {
		sort.Ints(tids)
		sc.movesInto[g] = tids[:0]
	}
	return tids
}

// NewCoalescer wraps inner with write coalescing. seed may be nil (cold
// mirror: the first write of every knob passes through). Seeding is only
// sound when the kernel is known to match the seed — i.e. right after a
// reconcile pass converged (warm restart); otherwise leave it nil.
func NewCoalescer(inner OSInterface, seed *CoalescerSeed) *Coalescer {
	c := &Coalescer{
		inner:      inner,
		nices:      make(map[int]int),
		shares:     make(map[string]int),
		placed:     make(map[int]string),
		groups:     make(map[string]bool),
		dirtyNice:  make(map[int]bool),
		dirtyPlace: make(map[int]bool),
		dirtyGroup: make(map[string]bool),
	}
	if seed != nil {
		for tid, n := range seed.Nices {
			c.nices[tid] = n
		}
		for g, s := range seed.Shares {
			c.shares[g] = s
			c.groups[g] = true
		}
		for tid, g := range seed.Placements {
			c.placed[tid] = g
			c.groups[g] = true
		}
	}
	return c
}

// SetTelemetry mirrors the suppression counters into a registry under the
// given binding label. nil disables.
func (c *Coalescer) SetTelemetry(reg *telemetry.Registry, binding string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.ctrSuppressed, c.ctrIssued, c.ctrFlushes = nil, nil, nil
		return
	}
	l := telemetry.L("binding", binding)
	c.ctrSuppressed = reg.Counter(MetricCoalesceSuppressed, l)
	c.ctrIssued = reg.Counter(MetricCoalesceIssued, l)
	c.ctrFlushes = reg.Counter(MetricCoalesceFlushes, l)
}

// Suppressed returns how many ops the diff swallowed over the coalescer's
// lifetime.
func (c *Coalescer) Suppressed() int64 { return c.suppressed.Load() }

// Issued returns how many ops reached the wrapped chain.
func (c *Coalescer) Issued() int64 { return c.issued.Load() }

func (c *Coalescer) countSuppressed() {
	c.suppressed.Add(1)
	if ctr := c.ctrSuppressed; ctr != nil {
		ctr.Inc()
	}
}

func (c *Coalescer) countIssued() {
	c.issued.Add(1)
	if ctr := c.ctrIssued; ctr != nil {
		ctr.Inc()
	}
}

// Begin starts buffering ops for one translator apply. Calling Begin with
// a batch already open discards the open batch (the middleware brackets
// every apply symmetrically, so this only happens after a panic unwound an
// apply mid-batch).
func (c *Coalescer) Begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batching = true
	if c.buf == nil {
		c.buf = newCoalesceBatch()
	} else {
		c.buf.reset()
	}
}

// Flush applies the buffered batch through the wrapped chain — grouped per
// cgroup (ensure, shares, moves), then renices, then removals and
// restores — and closes the batch. Buffered ops whose final value matches
// the mirror (set away from it, then back) are dropped here. Vanished-entity
// errors are benign skips, matching translator semantics.
//
// When the wrapped chain implements BatchApplier (e.g. a
// driver.SubmitQueue), the surviving ops descend as one contiguous batch —
// one submission to the per-driver writer instead of one handoff per op.
func (c *Coalescer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.batching {
		return nil
	}
	buf := c.buf
	c.batching = false
	// buf stays allocated; the next Begin resets it for reuse.
	c.flushes.Add(1)
	if ctr := c.ctrFlushes; ctr != nil {
		ctr.Inc()
	}
	if buf.empty() {
		// Every op was suppressed as it arrived: the steady-state flush.
		return nil
	}

	// Per-cgroup groups of surviving ops: ensure, shares, then moves.
	sc := &c.flush
	if sc.groupSet == nil {
		sc.groupSet = make(map[string]bool, len(buf.ensures)+len(buf.shares))
		sc.movesInto = make(map[string][]int)
	}
	clear(sc.groupSet)
	for g := range buf.ensures {
		sc.groupSet[g] = true
	}
	for g := range buf.shares {
		sc.groupSet[g] = true
	}
	for tid, g := range buf.moves {
		sc.groupSet[g] = true
		sc.movesInto[g] = append(sc.movesInto[g], tid)
	}
	sc.keys = appendSortedKeys(sc.keys, sc.groupSet)

	if ba, ok := c.inner.(BatchApplier); ok {
		return c.flushBatchLocked(buf, sc, ba)
	}

	var errs []error
	for _, g := range sc.keys {
		if buf.ensures[g] {
			errs = coalesceErr(errs, "ensure", g, c.ensureLocked(g))
		}
		if s, ok := buf.shares[g]; ok {
			errs = coalesceErr(errs, "shares", g, c.setSharesLocked(g, s))
		}
		for _, tid := range sc.takeMoves(g) {
			errs = coalesceErrTID(errs, "move", tid, c.moveLocked(tid, g))
		}
	}
	sc.tids = sc.tids[:0]
	for tid := range buf.nices {
		sc.tids = append(sc.tids, tid)
	}
	sort.Ints(sc.tids)
	for _, tid := range sc.tids {
		errs = coalesceErrTID(errs, "nice", tid, c.setNiceLocked(tid, buf.nices[tid]))
	}
	sc.keys = appendSortedKeys(sc.keys, buf.removes)
	for _, g := range sc.keys {
		errs = coalesceErr(errs, "remove", g, c.removeLocked(g))
	}
	sc.tids = sc.tids[:0]
	for tid := range buf.restores {
		sc.tids = append(sc.tids, tid)
	}
	sort.Ints(sc.tids)
	for _, tid := range sc.tids {
		errs = coalesceErrTID(errs, "restore", tid, c.restoreLocked(tid))
	}
	return errors.Join(errs...)
}

// flushBatchLocked is the BatchApplier flush path: the suppression diff
// runs up front, survivors are assembled into one ControlOp batch in the
// same order the sequential path issues them, the whole batch descends in
// one ApplyBatch call, and the per-op results drive the same mirror
// updates afterwards.
func (c *Coalescer) flushBatchLocked(buf *coalesceBatch, sc *coalesceFlushScratch, ba BatchApplier) error {
	ops := c.batchOps[:0]
	for _, g := range sc.keys {
		if buf.ensures[g] {
			if c.ensureNeeded(g) {
				ops = append(ops, ControlOp{Kind: OpEnsureCgroup, Cgroup: g})
			} else {
				c.countSuppressed()
			}
		}
		if s, ok := buf.shares[g]; ok {
			if c.sharesNeeded(g, s) {
				ops = append(ops, ControlOp{Kind: OpSetShares, Cgroup: g, Value: s})
			} else {
				c.countSuppressed()
			}
		}
		for _, tid := range sc.takeMoves(g) {
			if c.moveNeeded(tid, g) {
				ops = append(ops, ControlOp{Kind: OpMoveThread, Thread: tid, Cgroup: g})
			} else {
				c.countSuppressed()
			}
		}
	}
	sc.tids = sc.tids[:0]
	for tid := range buf.nices {
		sc.tids = append(sc.tids, tid)
	}
	sort.Ints(sc.tids)
	for _, tid := range sc.tids {
		if c.niceNeeded(tid, buf.nices[tid]) {
			ops = append(ops, ControlOp{Kind: OpSetNice, Thread: tid, Value: buf.nices[tid]})
		} else {
			c.countSuppressed()
		}
	}
	sc.keys = appendSortedKeys(sc.keys, buf.removes)
	for _, g := range sc.keys {
		ops = append(ops, ControlOp{Kind: OpRemoveCgroup, Cgroup: g})
	}
	sc.tids = sc.tids[:0]
	for tid := range buf.restores {
		sc.tids = append(sc.tids, tid)
	}
	sort.Ints(sc.tids)
	for _, tid := range sc.tids {
		ops = append(ops, ControlOp{Kind: OpRestoreThread, Thread: tid})
	}
	c.batchOps = ops
	if len(ops) == 0 {
		return nil
	}

	if cap(c.batchErrs) < len(ops) {
		c.batchErrs = make([]error, len(ops))
	}
	results := c.batchErrs[:len(ops)]
	for i := range results {
		results[i] = nil
	}
	for range ops {
		c.countIssued()
	}
	ba.ApplyBatch(ops, results)

	var errs []error
	for i, op := range ops {
		err := results[i]
		results[i] = nil // don't retain the error past this flush
		switch op.Kind {
		case OpEnsureCgroup:
			if err == nil {
				c.groups[op.Cgroup] = true
			}
			errs = coalesceErr(errs, "ensure", op.Cgroup, err)
		case OpSetShares:
			c.sharesApplied(op.Cgroup, op.Value, err)
			errs = coalesceErr(errs, "shares", op.Cgroup, err)
		case OpMoveThread:
			c.moveApplied(op.Thread, op.Cgroup, err)
			errs = coalesceErrTID(errs, "move", op.Thread, err)
		case OpSetNice:
			c.niceApplied(op.Thread, op.Value, err)
			errs = coalesceErrTID(errs, "nice", op.Thread, err)
		case OpRemoveCgroup:
			if err == nil || IsVanished(err) {
				delete(c.shares, op.Cgroup)
				delete(c.groups, op.Cgroup)
				delete(c.dirtyGroup, op.Cgroup)
			}
			errs = coalesceErr(errs, "remove", op.Cgroup, err)
		case OpRestoreThread:
			if err == nil || IsVanished(err) {
				delete(c.placed, op.Thread)
				delete(c.dirtyPlace, op.Thread)
			}
			errs = coalesceErrTID(errs, "restore", op.Thread, err)
		}
	}
	return errors.Join(errs...)
}

// coalesceErr appends a wrapped non-benign error for a string-keyed op.
// Typed key parameters (vs a closure over `any`) keep the healthy flush
// path free of interface boxing and closure allocations.
func coalesceErr(errs []error, op, key string, err error) []error {
	if err != nil && !IsVanished(err) {
		errs = append(errs, fmt.Errorf("coalesce %s %s: %w", op, key, err))
	}
	return errs
}

// coalesceErrTID is coalesceErr for thread-keyed ops.
func coalesceErrTID(errs []error, op string, tid int, err error) []error {
	if err != nil && !IsVanished(err) {
		errs = append(errs, fmt.Errorf("coalesce %s %d: %w", op, tid, err))
	}
	return errs
}

// --- suppression predicates and mirror updates (shared by the single-op
// and batch flush paths) ---

func (c *Coalescer) niceNeeded(tid, nice int) bool {
	if c.dirtyNice[tid] {
		return true
	}
	have, ok := c.nices[tid]
	return !ok || have != nice
}

func (c *Coalescer) niceApplied(tid, nice int, err error) {
	if err == nil {
		c.nices[tid] = nice
		delete(c.dirtyNice, tid)
	} else if IsVanished(err) {
		delete(c.nices, tid)
		delete(c.placed, tid)
	}
}

func (c *Coalescer) ensureNeeded(name string) bool {
	return c.dirtyGroup[name] || !c.groups[name]
}

func (c *Coalescer) sharesNeeded(name string, shares int) bool {
	if c.dirtyGroup[name] {
		return true
	}
	have, ok := c.shares[name]
	return !ok || have != shares
}

func (c *Coalescer) sharesApplied(name string, shares int, err error) {
	if err == nil {
		c.shares[name] = shares
		c.groups[name] = true
		delete(c.dirtyGroup, name)
	} else if IsVanished(err) {
		delete(c.shares, name)
		delete(c.groups, name)
	}
}

func (c *Coalescer) moveNeeded(tid int, name string) bool {
	if c.dirtyPlace[tid] {
		return true
	}
	have, ok := c.placed[tid]
	return !ok || have != name
}

func (c *Coalescer) moveApplied(tid int, name string, err error) {
	if err == nil {
		c.placed[tid] = name
		delete(c.dirtyPlace, tid)
	} else if IsVanished(err) {
		delete(c.nices, tid)
		delete(c.placed, tid)
	}
}

// --- locked single-op paths ---

func (c *Coalescer) setNiceLocked(tid, nice int) error {
	if !c.niceNeeded(tid, nice) {
		c.countSuppressed()
		return nil
	}
	c.countIssued()
	err := c.inner.SetNice(tid, nice)
	c.niceApplied(tid, nice, err)
	return err
}

func (c *Coalescer) ensureLocked(name string) error {
	if !c.ensureNeeded(name) {
		c.countSuppressed()
		return nil
	}
	c.countIssued()
	err := c.inner.EnsureCgroup(name)
	if err == nil {
		c.groups[name] = true
	}
	return err
}

func (c *Coalescer) setSharesLocked(name string, shares int) error {
	if !c.sharesNeeded(name, shares) {
		c.countSuppressed()
		return nil
	}
	c.countIssued()
	err := c.inner.SetShares(name, shares)
	c.sharesApplied(name, shares, err)
	return err
}

func (c *Coalescer) moveLocked(tid int, name string) error {
	if !c.moveNeeded(tid, name) {
		c.countSuppressed()
		return nil
	}
	c.countIssued()
	err := c.inner.MoveThread(tid, name)
	c.moveApplied(tid, name, err)
	return err
}

func (c *Coalescer) removeLocked(name string) error {
	var err error
	if r, ok := c.inner.(CgroupRemover); ok {
		c.countIssued()
		err = r.RemoveCgroup(name)
	}
	if err == nil || IsVanished(err) {
		delete(c.shares, name)
		delete(c.groups, name)
		delete(c.dirtyGroup, name)
	}
	return err
}

func (c *Coalescer) restoreLocked(tid int) error {
	var err error
	if r, ok := c.inner.(PlacementRestorer); ok {
		c.countIssued()
		err = r.RestoreThread(tid)
	}
	if err == nil || IsVanished(err) {
		delete(c.placed, tid)
		delete(c.dirtyPlace, tid)
	}
	return err
}

// --- OSInterface (buffer when batching, else immediate) ---
//
// While batching, an op that matches the mirror (dirty marks honoured) is
// suppressed as it arrives unless the batch already holds an op for the
// same knob — then it must be buffered, or last-wins would resurrect the
// earlier value at Flush.

// SetNice implements OSInterface.
func (c *Coalescer) SetNice(tid, nice int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		if _, pending := c.buf.nices[tid]; !pending && !c.niceNeeded(tid, nice) {
			c.countSuppressed()
			return nil
		}
		c.buf.nices[tid] = nice
		return nil
	}
	return c.setNiceLocked(tid, nice)
}

// EnsureCgroup implements OSInterface.
func (c *Coalescer) EnsureCgroup(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		if !c.buf.ensures[name] && !c.ensureNeeded(name) {
			c.countSuppressed()
			return nil
		}
		c.buf.ensures[name] = true
		return nil
	}
	return c.ensureLocked(name)
}

// SetShares implements OSInterface.
func (c *Coalescer) SetShares(name string, shares int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		if _, pending := c.buf.shares[name]; !pending && !c.sharesNeeded(name, shares) {
			c.countSuppressed()
			return nil
		}
		c.buf.shares[name] = shares
		return nil
	}
	return c.setSharesLocked(name, shares)
}

// MoveThread implements OSInterface.
func (c *Coalescer) MoveThread(tid int, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		if _, pending := c.buf.moves[tid]; !pending && !c.moveNeeded(tid, name) {
			c.countSuppressed()
			return nil
		}
		c.buf.moves[tid] = name
		return nil
	}
	return c.moveLocked(tid, name)
}

// RemoveCgroup implements CgroupRemover. In a batch the removal flushes
// after all updates and moves, so threads leave a group before it goes.
func (c *Coalescer) RemoveCgroup(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		c.buf.removes[name] = true
		return nil
	}
	return c.removeLocked(name)
}

// RestoreThread implements PlacementRestorer.
func (c *Coalescer) RestoreThread(tid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batching {
		c.buf.restores[tid] = true
		return nil
	}
	return c.restoreLocked(tid)
}

// InvalidateThread implements CacheInvalidator: the reconciler repaired
// (or is about to repair) external interference on this thread, so the
// mirror is a lie until the next write passes through.
func (c *Coalescer) InvalidateThread(tid int) {
	c.mu.Lock()
	delete(c.nices, tid)
	delete(c.placed, tid)
	c.dirtyNice[tid] = true
	c.dirtyPlace[tid] = true
	c.mu.Unlock()
	InvalidateThreadState(c.inner, tid)
}

// InvalidateCgroup implements CacheInvalidator.
func (c *Coalescer) InvalidateCgroup(name string) {
	c.mu.Lock()
	delete(c.shares, name)
	delete(c.groups, name)
	c.dirtyGroup[name] = true
	c.mu.Unlock()
	InvalidateCgroupState(c.inner, name)
}
