package core

import (
	"math"
)

// Nice range constants (duplicated from the OS layer so core stays
// independent of any particular OS binding).
const (
	niceMin = -20
	niceMax = 19
)

// log125 is ln(1.25), the base of the kernel's nice weight law
// w(n) = 1024/1.25^n (§2).
var log125 = math.Log(1.25)

// NormalizeToNice converts policy priorities (higher = more CPU) into nice
// values in [-20, 19] (lower = more CPU), implementing the priority
// normalization of §5.3.
//
// For logarithmically-spaced priorities it uses the paper's exact nice
// formula F(x) = n_max + (log(p_max) - log(x)) / log(1.25), falling back
// to min-max on the logs when the relative spread does not fit the 40
// distinct nice values. For linear priorities it min-max-normalizes and
// discretizes into the nice range.
func NormalizeToNice(priorities map[string]float64, scale Scale) map[string]int {
	return NormalizeToNiceObserved(priorities, scale, nil)
}

// ClampObserver is notified of each policy output that had to be clamped
// into the valid nice range: entity names the operator, raw is the
// pre-clamp value, clamped the nice value actually used. NiceTranslator
// wires an observer that records an audit event and counts
// lachesis_policy_clamped_total, so silently-corrected policy bugs stay
// attributable.
type ClampObserver func(entity string, raw float64, clamped int)

// NormalizeToNiceObserved is NormalizeToNice with clamp observation:
// every output that falls outside [-20, 19] before clamping (including
// NaN/Inf garbage, which clamps to the weakest nice) is reported to obs,
// in sorted entity order.
func NormalizeToNiceObserved(priorities map[string]float64, scale Scale, obs ClampObserver) map[string]int {
	keys, vals, _ := orderedValues(nil, nil, priorities, identity)
	return zipInts(keys, normalizeNice(keys, vals, scale, obs, nil))
}

// NormalizeToShares converts group priorities into cgroup cpu.shares in
// [lo, hi], min-max (optionally on logarithms) with higher priority
// getting more shares.
func NormalizeToShares(priorities map[string]float64, scale Scale, lo, hi int) map[string]int {
	keys, vals, _ := orderedValues(nil, nil, priorities, identity)
	return zipInts(keys, normalizeShares(vals, scale, lo, hi, nil))
}

func identity(v float64) float64 { return v }

func zipInts(keys []string, vals []int) map[string]int {
	out := make(map[string]int, len(keys))
	for i, k := range keys {
		out[k] = vals[i]
	}
	return out
}

// orderedValues returns m's keys in sorted order and, at the same indexes,
// the priorities of its values. keys is the order of an earlier call: it is
// reused when it still is m's key set — as many keys as m has, each of
// them present, checked by the lookups that read the values — and
// re-collected and re-sorted otherwise, which rebuilt reports. Both slices
// are reused within capacity.
func orderedValues[V any](keys []string, vals []float64, m map[string]V, prio func(V) float64) (_ []string, _ []float64, rebuilt bool) {
	vals = vals[:0]
	if len(keys) == len(m) {
		for _, k := range keys {
			v, ok := m[k]
			if !ok {
				break
			}
			vals = append(vals, prio(v))
		}
		if len(vals) == len(keys) {
			return keys, vals, false
		}
		vals = vals[:0]
	}
	keys = appendSortedKeys(keys, m)
	for _, k := range keys {
		vals = append(vals, prio(m[k]))
	}
	return keys, vals, true
}

// normalizeNice is the nice normalization over slices: vals[i] is the
// priority of keys[i] and is consumed as scratch, the result (out, reused
// within capacity) carries its nice value at the same index. Clamp events
// reach obs in index order.
func normalizeNice(keys []string, vals []float64, scale Scale, obs ClampObserver, out []int) []int {
	// Linear: higher priority -> lower nice, so min-max inverts. Log: the
	// paper's formula when every value fits the 40 nice levels, else
	// min-max on the log-domain values (the paper's "additional min-max
	// normalization might still be required").
	if scale != ScaleLog {
		minMaxInPlace(vals, niceMin, niceMax, true)
	} else if !logNiceInPlace(vals) {
		minMaxInPlace(vals, niceMin, niceMax, false)
	}
	out = out[:0]
	for i, f := range vals {
		out = append(out, clampNiceObserved(keys[i], f, obs))
	}
	return out
}

// normalizeShares is the cpu.shares normalization over slices, with the
// conventions of normalizeNice.
func normalizeShares(vals []float64, scale Scale, lo, hi int, out []int) []int {
	if scale == ScaleLog {
		shiftPositiveInPlace(vals)
		for i, v := range vals {
			vals[i] = math.Log(v)
		}
	}
	minMaxInPlace(vals, float64(lo), float64(hi), false)
	out = out[:0]
	for _, v := range vals {
		out = append(out, int(math.Round(v)))
	}
	return out
}

// logNiceInPlace replaces each priority by its raw nice value under the
// paper's formula and reports whether all of them fit the nice range.
func logNiceInPlace(vals []float64) (fits bool) {
	shiftPositiveInPlace(vals)
	pmax := math.Inf(-1)
	for _, v := range vals {
		pmax = math.Max(pmax, v)
	}
	logPmax := math.Log(pmax)
	fits = true
	for i, v := range vals {
		f := float64(niceMin) + (logPmax-math.Log(v))/log125
		vals[i] = f
		if f > float64(niceMax) {
			fits = false
		}
	}
	return fits
}

// clampNiceObserved clamps one raw nice value and reports the correction
// when the value was out of range. In-range inputs always round in-range;
// only garbage (NaN/Inf priorities surviving min-max) lands here out of
// range. NaN clamps to the weakest nice rather than relying on the
// platform-defined float-to-int conversion, which would hand the broken
// operator the strongest priority.
func clampNiceObserved(entity string, f float64, obs ClampObserver) int {
	n := clampNice(int(math.Round(f)))
	if math.IsNaN(f) {
		n = niceMax
	}
	if obs != nil && (math.IsNaN(f) || f < float64(niceMin)-0.5 || f > float64(niceMax)+0.5) {
		obs(entity, f, n)
	}
	return n
}

// shiftPositiveInPlace shifts vals so the minimum is strictly positive,
// preserving order (log normalization needs positive inputs).
func shiftPositiveInPlace(vals []float64) {
	min := math.Inf(1)
	for _, v := range vals {
		min = math.Min(min, v)
	}
	if min > 0 {
		return
	}
	shift := -min + 1e-9
	for i, v := range vals {
		vals[i] = v + shift
	}
}

// minMaxInPlace maps vals onto [lo, hi]. With invert=true the largest
// input maps to lo (used for nice, where small means strong). Equal inputs
// map to the middle of the range.
func minMaxInPlace(vals []float64, lo, hi float64, invert bool) {
	// NaN inputs are excluded from the min/max so one garbage value
	// cannot poison the span; they propagate as NaN outputs for the
	// clamp observer to attribute.
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	span := max - min
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		var frac float64 // 0 = weakest, 1 = strongest
		if span > 0 {
			frac = (v - min) / span
		} else {
			frac = 0.5
		}
		if invert {
			vals[i] = hi - frac*(hi-lo)
		} else {
			vals[i] = lo + frac*(hi-lo)
		}
	}
}

func clampNice(n int) int {
	if n < niceMin {
		return niceMin
	}
	if n > niceMax {
		return niceMax
	}
	return n
}
