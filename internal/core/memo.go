package core

import (
	"maps"
	"time"
)

// Decision memoization: the per-binding fast path that skips the whole
// schedule -> translate -> apply pipeline when the binding's inputs — the
// metric values and entity lists of its drivers — are unchanged since its
// last successful apply. Stream workloads plateau: between load shifts a
// value-deterministic policy recomputes the identical schedule every
// period and the Coalescer then suppresses every resulting op against its
// mirror. Memoization moves that fixpoint detection from O(entities)
// schedule + translate work to an O(values) comparison, which is what
// keeps the per-cycle cost flat at the 10k-binding scale point.
//
// Soundness rests on three properties, which is why it is opt-in
// (Binding.Memoize) rather than the default:
//
//   - The policy must be value-deterministic: its schedule is a pure
//     function of the view's entities and metric values. Policies that
//     read View.Now, hold evolving internal state, or randomize must not
//     be memoized.
//   - Skipping an apply must be harmless: the previous apply succeeded
//     (memoValid is only set on success) and the OS keeps enforcing it.
//     External drift is repaired by the reconciler directly through the
//     gated chain — repair does not depend on the next translator apply.
//   - Any failure or quarantine reset invalidates the memo
//     (recordFailure / resetBinding), so half-open probes and recovery
//     paths always execute the full pipeline.
//
// Memoization engages only in the resilient (default) step path; the
// strict pre-hardening loop (Resilience{Disabled: true}) always runs
// every cycle in full.
//
// The stored inputs are deep copies into binding-owned maps reused across
// cycles (clear + copy), so steady state stays allocation-free. Drivers
// paired with memoized bindings should return a stable slice from
// Entities(); a driver that re-allocates per call stays correct but pays
// one allocation per comparison.

// memoHit reports whether every driver input of bp is unchanged since the
// stored snapshot. Caller has checked bp.Memoize && bp.memoValid.
func (m *Middleware) memoHit(bp *boundPolicy) bool {
	for i, d := range bp.Drivers {
		name := bp.names[i]
		dv := bp.states[i].vals
		sv := bp.memoVals[name]
		if dv == nil || len(dv) != len(sv) {
			return false
		}
		for metric, ev := range dv {
			if !maps.Equal(ev, sv[metric]) {
				return false
			}
		}
		if !entitiesEqual(d.Entities(), bp.memoEnts[name]) {
			return false
		}
	}
	return true
}

// memoStore snapshots bp's inputs after a successful apply. entities is
// the applied view's entity count, replayed into stats on later hits.
func (m *Middleware) memoStore(bp *boundPolicy, entities int) {
	if bp.memoVals == nil {
		bp.memoVals = make(map[string]map[string]EntityValues, len(bp.Drivers))
		bp.memoEnts = make(map[string][]Entity, len(bp.Drivers))
	}
	for i, d := range bp.Drivers {
		name := bp.names[i]
		dv := bp.states[i].vals
		if dv == nil {
			// A driver contributed nothing this cycle (e.g. it was the
			// stale one of a multi-driver binding); without a complete
			// snapshot the memo cannot be trusted.
			bp.memoValid = false
			return
		}
		sv := bp.memoVals[name]
		if sv == nil {
			sv = make(map[string]EntityValues, len(dv))
			bp.memoVals[name] = sv
		}
		for metric := range sv {
			if _, ok := dv[metric]; !ok {
				delete(sv, metric)
			}
		}
		for metric, ev := range dv {
			dst := sv[metric]
			if dst == nil {
				dst = make(EntityValues, len(ev))
				sv[metric] = dst
			}
			clear(dst)
			maps.Copy(dst, ev)
		}
		bp.memoEnts[name] = append(bp.memoEnts[name][:0], d.Entities()...)
	}
	bp.memoEntities = entities
	bp.memoValid = true
}

// memoSkip builds the outcome of a memoized cycle: the binding counts as
// healthy (lastSuccess advances) and reports its last applied entity
// count, but no phase runs and no audit event is recorded — exactly like
// a fully-suppressed Coalescer flush, the desired state is already in
// force.
func (m *Middleware) memoSkip(bp *boundPolicy, now time.Duration) bindingOutcome {
	bp.lastSuccess = now
	return bindingOutcome{
		ran:      true,
		entities: bp.memoEntities,
		bst: BindingStepStats{
			Label:      bp.label,
			Policy:     bp.policyName,
			Translator: bp.translatorName,
			Entities:   bp.memoEntities,
			Memoized:   true,
		},
	}
}

// entitiesEqual compares entity slices field-by-field (Entity holds
// slices, so it is not comparable with ==). Order-sensitive: drivers
// present entities in a stable order, and treating a reorder as a change
// only costs one redundant full cycle.
func entitiesEqual(a, b []Entity) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !entityEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func entityEqual(a, b *Entity) bool {
	if a.Name != b.Name || a.Driver != b.Driver || a.Query != b.Query ||
		a.Thread != b.Thread || a.Ingress != b.Ingress || a.Egress != b.Egress {
		return false
	}
	if len(a.Logical) != len(b.Logical) || len(a.Downstream) != len(b.Downstream) {
		return false
	}
	for i := range a.Logical {
		if a.Logical[i] != b.Logical[i] {
			return false
		}
	}
	for i := range a.Downstream {
		if a.Downstream[i] != b.Downstream[i] {
			return false
		}
	}
	return true
}
