package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestNormalizeToNiceLinear(t *testing.T) {
	prios := map[string]float64{"a": 0, "b": 50, "c": 100}
	got := NormalizeToNice(prios, ScaleLinear)
	if got["c"] != -20 {
		t.Errorf("highest priority should map to nice -20, got %d", got["c"])
	}
	if got["a"] != 19 {
		t.Errorf("lowest priority should map to nice 19, got %d", got["a"])
	}
	if got["b"] < -2 || got["b"] > 2 {
		t.Errorf("middle priority should map near nice 0, got %d", got["b"])
	}
}

func TestNormalizeToNiceEqualPriorities(t *testing.T) {
	prios := map[string]float64{"a": 5, "b": 5, "c": 5}
	got := NormalizeToNice(prios, ScaleLinear)
	for e, n := range got {
		if n != got["a"] {
			t.Fatalf("equal priorities should get equal nice, %s got %d", e, n)
		}
	}
	if got["a"] < -1 || got["a"] > 1 {
		t.Errorf("equal priorities should map near the middle, got %d", got["a"])
	}
}

func TestNormalizeToNiceLogFormula(t *testing.T) {
	// Paper §5.3: F(x) = n_max + (log(p_max) - log(x)) / log(1.25).
	// Priorities within a 1.25^k spread should land exactly k nice levels
	// apart.
	pmax := 100.0
	prios := map[string]float64{
		"top": pmax,
		"mid": pmax / math.Pow(1.25, 10),
		"low": pmax / math.Pow(1.25, 39),
	}
	got := NormalizeToNice(prios, ScaleLog)
	if got["top"] != -20 {
		t.Errorf("p_max should map to nice -20, got %d", got["top"])
	}
	if got["mid"] != -10 {
		t.Errorf("p_max/1.25^10 should map to nice -10, got %d", got["mid"])
	}
	if got["low"] != 19 {
		t.Errorf("p_max/1.25^39 should map to nice 19, got %d", got["low"])
	}
}

func TestNormalizeToNiceLogOverflowFallsBackToMinMax(t *testing.T) {
	// Spread of 1.25^200: cannot fit in 40 nice values; min-max on logs.
	prios := map[string]float64{
		"top": 1,
		"mid": math.Pow(1.25, -100),
		"low": math.Pow(1.25, -200),
	}
	got := NormalizeToNice(prios, ScaleLog)
	if got["top"] != -20 || got["low"] != 19 {
		t.Errorf("fallback min-max should span full range, got %v", got)
	}
	if got["mid"] < -2 || got["mid"] > 2 {
		t.Errorf("log-middle value should land near nice 0, got %d", got["mid"])
	}
}

func TestNormalizeToNiceNonPositiveLogInputs(t *testing.T) {
	prios := map[string]float64{"a": -5, "b": 0, "c": 5}
	got := NormalizeToNice(prios, ScaleLog)
	if got["c"] >= got["a"] {
		t.Errorf("higher priority should get lower nice: %v", got)
	}
	for e, n := range got {
		if n < -20 || n > 19 {
			t.Errorf("nice out of range for %s: %d", e, n)
		}
	}
}

func TestNormalizeToShares(t *testing.T) {
	prios := map[string]float64{"a": 0, "b": 10}
	got := NormalizeToShares(prios, ScaleLinear, 8, 8192)
	if got["a"] != 8 {
		t.Errorf("lowest priority shares = %d, want 8", got["a"])
	}
	if got["b"] != 8192 {
		t.Errorf("highest priority shares = %d, want 8192", got["b"])
	}
	one := NormalizeToShares(map[string]float64{"only": 3}, ScaleLinear, 8, 8192)
	if one["only"] < 8 || one["only"] > 8192 {
		t.Errorf("single group shares out of range: %d", one["only"])
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if got := NormalizeToNice(nil, ScaleLinear); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
	if got := NormalizeToShares(nil, ScaleLog, 2, 100); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
}

// refNormalize is the oracle for the slice kernel: the map-in, map-out
// normalization this package used before it, reduced to one function. It
// returns the raw (unrounded, unclamped) value per entity; with nice set
// the target is the nice range (lo, hi = niceMin, niceMax), else cpu.shares
// in [lo, hi].
func refNormalize(in map[string]float64, scale Scale, lo, hi float64, nice bool) map[string]float64 {
	v := maps.Clone(in)
	minMax := func(invert bool) {
		min, max := math.Inf(1), math.Inf(-1)
		for _, x := range v {
			if !math.IsNaN(x) {
				min, max = math.Min(min, x), math.Max(max, x)
			}
		}
		for e, x := range v {
			frac := 0.5
			if span := max - min; span > 0 {
				frac = (x - min) / span
			}
			if math.IsNaN(x) {
				continue
			}
			if v[e] = lo + frac*(hi-lo); invert {
				v[e] = hi - frac*(hi-lo)
			}
		}
	}
	if scale != ScaleLog {
		minMax(nice)
		return v
	}
	min, pmax, fits := math.Inf(1), math.Inf(-1), true
	for _, x := range v {
		min = math.Min(min, x)
	}
	for e, x := range v {
		if !(min > 0) {
			v[e] = x + (-min + 1e-9)
		}
		pmax = math.Max(pmax, v[e])
	}
	for e, x := range v {
		if v[e] = math.Log(x); nice {
			v[e] = lo + (math.Log(pmax)-math.Log(x))/log125
			fits = fits && !(v[e] > hi)
		}
	}
	if !nice || !fits {
		minMax(false)
	}
	return v
}

// normCases generates seeded inputs for the oracle comparison: ordinary
// spreads plus the garbage and corner cases the kernel has rules for.
func normCases(rng *rand.Rand) map[string]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3.5, 7, 7, math.Pow(1.25, -200), math.Pow(1.25, 200)}
	n := rng.Intn(12)
	in := make(map[string]float64, n)
	kind := rng.Intn(5)
	for i := 0; i < n; i++ {
		var x float64
		switch kind {
		case 0: // positive, within the 40 nice levels on a log scale
			x = 100 * math.Pow(1.25, -39*rng.Float64())
		case 1: // any sign
			x = rng.NormFloat64() * 50
		case 2: // all equal
			x = 4.25
		case 3: // wide positive spread: log overflow
			x = math.Pow(1.25, 400*rng.Float64()-200)
		default: // ordinary values salted with garbage
			if x = rng.Float64() * 10; rng.Intn(3) == 0 {
				x = special[rng.Intn(len(special))]
			}
		}
		in[fmt.Sprintf("e%02d", i)] = x
	}
	return in
}

// TestNormalizeKernelMatchesMapOracle compares the slice kernel bit for
// bit — raw values, then the integers and clamp events derived from them —
// against the map-based reference, for both targets and both scales.
func TestNormalizeKernelMatchesMapOracle(t *testing.T) {
	type clamp struct {
		entity string
		raw    uint64
		n      int
	}
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 2000; c++ {
		in := normCases(rng)
		for _, scale := range []Scale{ScaleLinear, ScaleLog} {
			keys, vals, _ := orderedValues(nil, nil, in, identity)
			var got, want []clamp
			nices := normalizeNice(keys, vals, scale, func(e string, raw float64, n int) {
				got = append(got, clamp{e, math.Float64bits(raw), n})
			}, nil)
			ref := refNormalize(in, scale, niceMin, niceMax, true)
			for i, k := range keys {
				if math.Float64bits(vals[i]) != math.Float64bits(ref[k]) {
					t.Fatalf("case %d nice scale %d %v: raw[%s] = %v, oracle %v", c, scale, in, k, vals[i], ref[k])
				}
				n := clampNiceObserved(k, ref[k], func(e string, raw float64, n int) {
					want = append(want, clamp{e, math.Float64bits(raw), n})
				})
				if nices[i] != n {
					t.Fatalf("case %d nice scale %d %v: nice[%s] = %d, oracle %d", c, scale, in, k, nices[i], n)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d nice scale %d %v: clamp events %v, oracle (sorted entity order) %v", c, scale, in, got, want)
			}
			if m := NormalizeToNice(in, scale); len(m) != len(in) {
				t.Fatalf("case %d: NormalizeToNice returned %d of %d entities", c, len(m), len(in))
			}

			keys, vals, _ = orderedValues(keys, vals, in, identity)
			shares := normalizeShares(vals, scale, 8, 8192, nil)
			ref = refNormalize(in, scale, 8, 8192, false)
			for i, k := range keys {
				if math.Float64bits(vals[i]) != math.Float64bits(ref[k]) || shares[i] != int(math.Round(ref[k])) {
					t.Fatalf("case %d shares scale %d %v: [%s] = %v -> %d, oracle %v", c, scale, in, k, vals[i], shares[i], ref[k])
				}
			}
		}
	}
}
