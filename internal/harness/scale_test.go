package harness

import (
	"strings"
	"testing"
	"time"

	"lachesis/internal/core"
)

// The synthetic drivers must be deterministic in virtual time — the
// property traceoverhead's paired untraced/traced comparison rests on.
func TestScaleDriverDeterminism(t *testing.T) {
	a := newScaleDriver(3, 4*time.Second, 0)
	b := newScaleDriver(3, 4*time.Second, 0)
	for _, now := range []time.Duration{0, time.Second, 4 * time.Second, 10 * time.Second} {
		va, err := a.Fetch(core.MetricQueueSize, now)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Fetch(core.MetricQueueSize, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(va) != scaleEntities {
			t.Fatalf("got %d values, want %d", len(va), scaleEntities)
		}
		for k, v := range va {
			if vb[k] != v {
				t.Fatalf("driver not deterministic at %v: %s %v != %v", now, k, v, vb[k])
			}
		}
	}
	// Steady state: values stop changing after warmup. Fetch reuses one
	// owned map, so the first result must be copied before re-fetching.
	fetched, _ := a.Fetch(core.MetricQueueSize, 5*time.Second)
	v1 := make(core.EntityValues, len(fetched))
	for k, v := range fetched {
		v1[k] = v
	}
	v2, _ := a.Fetch(core.MetricQueueSize, 9*time.Second)
	for k := range v1 {
		if v1[k] != v2[k] {
			t.Fatalf("steady-state values still changing: %s", k)
		}
	}
	if !strings.HasPrefix(a.Name(), "spe-") {
		t.Fatalf("unexpected driver name %q", a.Name())
	}
}
