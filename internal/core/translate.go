package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// OSInterface abstracts the OS scheduling mechanisms a translator drives
// (Definition 3.3). internal/simctl adapts the simulated kernel;
// internal/oslinux adapts a real Linux host.
type OSInterface interface {
	// SetNice sets a thread's nice value.
	SetNice(tid int, nice int) error
	// EnsureCgroup creates the named cgroup if needed (idempotent).
	EnsureCgroup(name string) error
	// SetShares sets a cgroup's cpu.shares.
	SetShares(cgroupName string, shares int) error
	// MoveThread places a thread into a cgroup (idempotent).
	MoveThread(tid int, cgroupName string) error
}

// Translator applies a schedule through an OS mechanism (Definition 3.3).
// Translators are orthogonal to policies: the same policy can be enforced
// via nice, via cgroup cpu.shares, or both (§5.3).
type Translator interface {
	Name() string
	Apply(sched Schedule, entities map[string]Entity) error
}

// Resetter is the optional translator capability to undo its scheduling
// decisions: restore default priorities and release OS resources it
// created. The middleware uses it for the DegradedReset action, and
// lachesisd for graceful shutdown. All built-in translators implement it.
type Resetter interface {
	Reset(entities map[string]Entity) error
}

// PlacementRestorer is the optional OS capability to return a thread to
// wherever it lived before Lachesis first moved it (its original cgroup,
// or the root when unknown). The shares translator uses it on Reset so
// emptied cgroups can be removed.
type PlacementRestorer interface {
	RestoreThread(tid int) error
}

// Default cpu.shares normalization range. The 1024x spread roughly matches
// the useful dynamic range of nice (1.25^39 ~ 6000x) while staying well
// inside the kernel's [2, 262144] bounds.
const (
	DefaultSharesLo = 8
	DefaultSharesHi = 8192
)

// --- nice translator ---

// NiceTranslator enforces single-priority schedules by renicing operator
// threads.
type NiceTranslator struct {
	os    OSInterface
	clamp ClampObserver

	// keys is the sorted key order of the last schedule, kept while the key
	// set stays the same (see orderedValues); vals and nices are the
	// priorities and nice values at the same indexes. All three are reused
	// across applies: a translator belongs to one binding, or shares its
	// binding's execMu. A translator shared by bindings with different
	// entities re-sorts on every apply.
	keys  []string
	vals  []float64
	nices []int
}

var _ Translator = (*NiceTranslator)(nil)

// NewNiceTranslator returns a nice translator over an OS binding.
func NewNiceTranslator(os OSInterface) *NiceTranslator {
	return &NiceTranslator{os: os}
}

// ObserveClamps installs a clamp observer: every policy output that had
// to be clamped into the valid nice range during normalization is
// reported before the (clamped) value is applied. See ClampRecorder for
// the standard audit + telemetry observer. nil disables observation.
func (t *NiceTranslator) ObserveClamps(obs ClampObserver) { t.clamp = obs }

// Name implements Translator.
func (*NiceTranslator) Name() string { return "nice" }

// Apply implements Translator. Per-entity OS errors do not stop the
// remaining entities from being applied; vanished threads (the thread
// exited between the driver listing it and setpriority reaching it) are
// benign skips, not errors.
func (t *NiceTranslator) Apply(sched Schedule, entities map[string]Entity) error {
	if len(sched.Single) == 0 {
		return errors.New("core: nice translator needs a single-priority schedule")
	}
	t.keys, t.vals, _ = orderedValues(t.keys, t.vals, sched.Single, identity)
	t.nices = normalizeNice(t.keys, t.vals, sched.Scale, t.clamp, t.nices)
	var errs []error
	for i, name := range t.keys {
		ent, ok := entities[name]
		if !ok || ent.Thread == 0 {
			continue // no dedicated thread (e.g. worker-pool engines)
		}
		if err := t.os.SetNice(ent.Thread, t.nices[i]); err != nil && !IsVanished(err) {
			errs = append(errs, fmt.Errorf("renice %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// Reset implements Resetter: every entity thread returns to the default
// nice value (0).
func (t *NiceTranslator) Reset(entities map[string]Entity) error {
	var errs []error
	for _, name := range sortedKeys(entities) {
		ent := entities[name]
		if ent.Thread == 0 {
			continue
		}
		if err := t.os.SetNice(ent.Thread, 0); err != nil && !IsVanished(err) {
			errs = append(errs, fmt.Errorf("reset nice %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// --- cpu.shares translator ---

// CgroupRemover is the optional OS capability to garbage-collect cgroups
// the shares translator created for entities that no longer exist (e.g. a
// torn-down query).
type CgroupRemover interface {
	RemoveCgroup(name string) error
}

// SharesTranslator enforces grouping schedules through the cgroup CPU
// controller. When a schedule has no explicit groups, each operator gets
// its own cgroup (how the paper schedules 100 operators despite nice
// having only 40 distinct values, §6.4). Groups that disappear from the
// schedule are removed when the OS binding supports it.
type SharesTranslator struct {
	os     OSInterface
	lo, hi int
	// prev is the group set of the last apply — the cgroups this translator
	// has created and not yet removed. It is rewritten only when the key
	// set changed: with an unchanged one it already equals the current set.
	prev map[string]bool

	// Cached sorted group order with the group priorities and shares at the
	// same indexes (see NiceTranslator). Reset drops the order, so the next
	// apply re-creates the groups and records them in prev.
	keys   []string
	vals   []float64
	shares []int
}

var _ Translator = (*SharesTranslator)(nil)

// NewSharesTranslator returns a cpu.shares translator; lo/hi bound the
// shares range (0 selects defaults).
func NewSharesTranslator(os OSInterface, lo, hi int) *SharesTranslator {
	if lo <= 0 {
		lo = DefaultSharesLo
	}
	if hi <= 0 {
		hi = DefaultSharesHi
	}
	return &SharesTranslator{os: os, lo: lo, hi: hi, prev: make(map[string]bool)}
}

// Name implements Translator.
func (*SharesTranslator) Name() string { return "cpu.shares" }

// Apply implements Translator.
func (t *SharesTranslator) Apply(sched Schedule, entities map[string]Entity) error {
	groups := sched.Groups
	// Without explicit groups every operator is a group of its own, named
	// after it.
	perOp := len(groups) == 0
	var rebuilt bool
	switch {
	case !perOp:
		t.keys, t.vals, rebuilt = orderedValues(t.keys, t.vals, groups, groupPriority)
	case len(sched.Single) > 0:
		t.keys, t.vals, rebuilt = orderedValues(t.keys, t.vals, sched.Single, identity)
	default:
		return errors.New("core: shares translator needs groups or single priorities")
	}
	t.shares = normalizeShares(t.vals, sched.Scale, t.lo, t.hi, t.shares)
	var errs []error
	for i, gid := range t.keys {
		if err := t.os.EnsureCgroup(gid); err != nil {
			errs = append(errs, fmt.Errorf("cgroup %s: %w", gid, err))
			continue
		}
		if err := t.os.SetShares(gid, t.shares[i]); err != nil && !IsVanished(err) {
			errs = append(errs, fmt.Errorf("shares %s: %w", gid, err))
		}
		if perOp {
			errs = t.move(errs, gid, gid, entities)
			continue
		}
		for _, opName := range groups[gid].Ops {
			errs = t.move(errs, opName, gid, entities)
		}
	}
	if !rebuilt {
		return errors.Join(errs...)
	}

	// The key set changed: garbage-collect cgroups whose group vanished
	// from the schedule. A group already gone (vanished) is success, not
	// failure.
	if remover, ok := t.os.(CgroupRemover); ok {
		for gid := range t.prev {
			if _, still := slices.BinarySearch(t.keys, gid); still {
				continue
			}
			if err := remover.RemoveCgroup(gid); err != nil && !IsVanished(err) {
				errs = append(errs, fmt.Errorf("remove stale cgroup %s: %w", gid, err))
			}
		}
	}
	clear(t.prev)
	for _, gid := range t.keys {
		t.prev[gid] = true
	}
	return errors.Join(errs...)
}

func groupPriority(g Group) float64 { return g.Priority }

// move places one operator's thread (if it has a dedicated one) in a group.
func (t *SharesTranslator) move(errs []error, opName, gid string, entities map[string]Entity) []error {
	ent, ok := entities[opName]
	if !ok || ent.Thread == 0 {
		return errs
	}
	if err := t.os.MoveThread(ent.Thread, gid); err != nil && !IsVanished(err) {
		errs = append(errs, fmt.Errorf("move %s to %s: %w", opName, gid, err))
	}
	return errs
}

// Reset implements Resetter: entity threads return to their original
// placement (when the OS binding can restore it) and every cgroup this
// translator created is removed (when the OS binding can remove them).
func (t *SharesTranslator) Reset(entities map[string]Entity) error {
	var errs []error
	if restorer, ok := t.os.(PlacementRestorer); ok {
		for _, name := range sortedKeys(entities) {
			ent := entities[name]
			if ent.Thread == 0 {
				continue
			}
			if err := restorer.RestoreThread(ent.Thread); err != nil && !IsVanished(err) {
				errs = append(errs, fmt.Errorf("restore %s: %w", name, err))
			}
		}
	}
	if remover, ok := t.os.(CgroupRemover); ok {
		for _, gid := range sortedKeys(t.prev) {
			if err := remover.RemoveCgroup(gid); err != nil && !IsVanished(err) {
				errs = append(errs, fmt.Errorf("remove cgroup %s: %w", gid, err))
			}
		}
	}
	clear(t.prev)
	t.keys = t.keys[:0]
	return errors.Join(errs...)
}

// perOpGroups puts every operator in its own group.
func perOpGroups(single map[string]float64) map[string]Group {
	out := make(map[string]Group, len(single))
	for name, prio := range single {
		out[name] = Group{Priority: prio, Ops: []string{name}}
	}
	return out
}

// --- combined translator ---

// CombinedTranslator enforces multi-dimensional schedules: cpu.shares for
// the grouping part and nice for operators within their groups (the Fig. 18
// configuration: one cgroup per query with equal shares, QS by nice
// inside).
type CombinedTranslator struct {
	shares *SharesTranslator
	nice   *NiceTranslator
}

var _ Translator = (*CombinedTranslator)(nil)

// NewCombinedTranslator returns a combined nice + cpu.shares translator.
func NewCombinedTranslator(os OSInterface, lo, hi int) *CombinedTranslator {
	return &CombinedTranslator{
		shares: NewSharesTranslator(os, lo, hi),
		nice:   NewNiceTranslator(os),
	}
}

// ObserveClamps installs a clamp observer on the nice half (shares
// normalization has no fixed kernel range to clamp against).
func (t *CombinedTranslator) ObserveClamps(obs ClampObserver) { t.nice.ObserveClamps(obs) }

// Name implements Translator.
func (*CombinedTranslator) Name() string { return "nice+cpu.shares" }

// Apply implements Translator.
func (t *CombinedTranslator) Apply(sched Schedule, entities map[string]Entity) error {
	if len(sched.Groups) == 0 {
		return errors.New("core: combined translator needs an explicit grouping schedule")
	}
	var errs []error
	if err := t.shares.Apply(Schedule{Scale: sched.Scale, Groups: sched.Groups}, entities); err != nil {
		errs = append(errs, err)
	}
	if len(sched.Single) > 0 {
		if err := t.nice.Apply(Schedule{Scale: sched.Scale, Single: sched.Single}, entities); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Reset implements Resetter.
func (t *CombinedTranslator) Reset(entities map[string]Entity) error {
	return errors.Join(t.nice.Reset(entities), t.shares.Reset(entities))
}

func sortedKeys[V any](m map[string]V) []string {
	return appendSortedKeys(nil, m)
}

// appendSortedKeys is sortedKeys into a reused buffer: dst is truncated,
// refilled, sorted, and returned (possibly regrown).
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}
