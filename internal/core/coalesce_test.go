package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// logOS records every control op that reaches it, in call order, so tests
// can assert both what the coalescer let through and how a flushed batch
// was sequenced. failOn injects an error for one op signature.
type logOS struct {
	ops         []string
	failOn      map[string]error
	invalidated []string
}

func (l *logOS) call(op string) error {
	l.ops = append(l.ops, op)
	if err := l.failOn[op]; err != nil {
		return err
	}
	return nil
}

func (l *logOS) SetNice(tid, nice int) error    { return l.call(fmt.Sprintf("nice %d %d", tid, nice)) }
func (l *logOS) EnsureCgroup(name string) error { return l.call("ensure " + name) }
func (l *logOS) SetShares(name string, shares int) error {
	return l.call(fmt.Sprintf("shares %s %d", name, shares))
}
func (l *logOS) MoveThread(tid int, name string) error {
	return l.call(fmt.Sprintf("move %d %s", tid, name))
}
func (l *logOS) RemoveCgroup(name string) error { return l.call("remove " + name) }
func (l *logOS) RestoreThread(tid int) error    { return l.call(fmt.Sprintf("restore %d", tid)) }
func (l *logOS) InvalidateThread(tid int) {
	l.invalidated = append(l.invalidated, fmt.Sprintf("thread %d", tid))
}
func (l *logOS) InvalidateCgroup(name string) {
	l.invalidated = append(l.invalidated, "cgroup "+name)
}

// TestCoalescerSuppression drives immediate-mode op sequences through a
// Coalescer and checks which reach the inner OS: repeats of an applied
// value are swallowed, value changes pass, vanished entities evict the
// mirror so a reused tid is written fresh.
func TestCoalescerSuppression(t *testing.T) {
	vanish := fmt.Errorf("gone: %w", ErrEntityVanished)
	cases := []struct {
		name       string
		failOn     map[string]error
		run        func(c *Coalescer) error
		want       []string // ops reaching inner, in order
		suppressed int64
	}{
		{
			name: "repeat nice suppressed",
			run: func(c *Coalescer) error {
				_ = c.SetNice(11, -5)
				_ = c.SetNice(11, -5)
				return c.SetNice(11, -5)
			},
			want:       []string{"nice 11 -5"},
			suppressed: 2,
		},
		{
			name: "changed nice passes",
			run: func(c *Coalescer) error {
				_ = c.SetNice(11, -5)
				_ = c.SetNice(11, 3)
				return c.SetNice(11, 3)
			},
			want:       []string{"nice 11 -5", "nice 11 3"},
			suppressed: 1,
		},
		{
			name: "repeat ensure suppressed",
			run: func(c *Coalescer) error {
				_ = c.EnsureCgroup("g1")
				return c.EnsureCgroup("g1")
			},
			want:       []string{"ensure g1"},
			suppressed: 1,
		},
		{
			name: "repeat shares suppressed, change passes",
			run: func(c *Coalescer) error {
				_ = c.SetShares("g1", 512)
				_ = c.SetShares("g1", 512)
				return c.SetShares("g1", 1024)
			},
			want:       []string{"shares g1 512", "shares g1 1024"},
			suppressed: 1,
		},
		{
			name: "repeat move suppressed, new target passes",
			run: func(c *Coalescer) error {
				_ = c.MoveThread(11, "g1")
				_ = c.MoveThread(11, "g1")
				return c.MoveThread(11, "g2")
			},
			want:       []string{"move 11 g1", "move 11 g2"},
			suppressed: 1,
		},
		{
			name: "successful shares marks group known — ensure suppressed",
			run: func(c *Coalescer) error {
				_ = c.SetShares("g1", 512)
				return c.EnsureCgroup("g1")
			},
			want:       []string{"shares g1 512"},
			suppressed: 1,
		},
		{
			name:   "vanished nice evicts mirror — reused tid written fresh",
			failOn: map[string]error{"nice 11 -5": vanish},
			run: func(c *Coalescer) error {
				_ = c.SetNice(11, -5) // fails vanished, mirror evicted
				return c.SetNice(11, -5)
			},
			want:       []string{"nice 11 -5", "nice 11 -5"},
			suppressed: 0,
		},
		{
			name:   "vanished move evicts placement and nice mirrors",
			failOn: map[string]error{"move 11 g1": vanish},
			run: func(c *Coalescer) error {
				_ = c.SetNice(11, -5)
				_ = c.MoveThread(11, "g1") // fails vanished
				return c.SetNice(11, -5)   // must pass through again
			},
			want:       []string{"nice 11 -5", "move 11 g1", "nice 11 -5"},
			suppressed: 0,
		},
		{
			name: "remove evicts group mirror — re-ensure passes",
			run: func(c *Coalescer) error {
				_ = c.SetShares("g1", 512)
				_ = c.RemoveCgroup("g1")
				_ = c.EnsureCgroup("g1")
				return c.SetShares("g1", 512)
			},
			want:       []string{"shares g1 512", "remove g1", "ensure g1", "shares g1 512"},
			suppressed: 0,
		},
		{
			name: "restore evicts placement mirror — re-move passes",
			run: func(c *Coalescer) error {
				_ = c.MoveThread(11, "g1")
				_ = c.RestoreThread(11)
				return c.MoveThread(11, "g1")
			},
			want:       []string{"move 11 g1", "restore 11", "move 11 g1"},
			suppressed: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := &logOS{failOn: tc.failOn}
			c := NewCoalescer(inner, nil)
			_ = tc.run(c)
			if !reflect.DeepEqual(inner.ops, tc.want) {
				t.Errorf("inner ops = %q, want %q", inner.ops, tc.want)
			}
			if c.Suppressed() != tc.suppressed {
				t.Errorf("Suppressed() = %d, want %d", c.Suppressed(), tc.suppressed)
			}
			if c.Issued() != int64(len(tc.want)) {
				t.Errorf("Issued() = %d, want %d", c.Issued(), len(tc.want))
			}
		})
	}
}

// TestCoalescerBatchOrdering: ops buffered between Begin and Flush reach
// the inner OS in the canonical order — per sorted cgroup its ensure,
// shares, then moves sorted by tid; then renices sorted by tid; then
// removals; then restores — regardless of the (scrambled) call order, and
// with last-wins semantics per knob.
func TestCoalescerBatchOrdering(t *testing.T) {
	inner := &logOS{}
	c := NewCoalescer(inner, nil)
	c.Begin()
	// Scrambled translator output; duplicates must collapse last-wins.
	_ = c.SetNice(30, 2)
	_ = c.MoveThread(21, "b")
	_ = c.SetShares("b", 256)
	_ = c.SetNice(10, -5)
	_ = c.MoveThread(20, "b")
	_ = c.EnsureCgroup("a")
	_ = c.SetShares("a", 999) // overwritten below
	_ = c.SetShares("a", 512)
	_ = c.MoveThread(11, "a")
	_ = c.SetNice(30, 7) // last-wins over nice 2
	_ = c.EnsureCgroup("b")
	_ = c.RestoreThread(40)
	_ = c.RemoveCgroup("old")
	if len(inner.ops) != 0 {
		t.Fatalf("ops leaked to inner before Flush: %q", inner.ops)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ensure a", "shares a 512", "move 11 a",
		"ensure b", "shares b 256", "move 20 b", "move 21 b",
		"nice 10 -5", "nice 30 7",
		"remove old",
		"restore 40",
	}
	if !reflect.DeepEqual(inner.ops, want) {
		t.Errorf("flush order:\n got %q\nwant %q", inner.ops, want)
	}

	// A second identical batch is fully suppressed (removes/restores have
	// no mirror entry left, so they re-issue; value knobs are swallowed).
	inner.ops = nil
	c.Begin()
	_ = c.EnsureCgroup("a")
	_ = c.SetShares("a", 512)
	_ = c.MoveThread(11, "a")
	_ = c.SetNice(10, -5)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(inner.ops) != 0 {
		t.Errorf("steady-state batch not suppressed, issued %q", inner.ops)
	}

	// Flush without Begin is a no-op; a fresh Begin discards a stale one.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Begin()
	_ = c.SetNice(99, 1)
	c.Begin() // discards buffered nice 99 (post-panic re-bracket)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(inner.ops) != 0 {
		t.Errorf("discarded batch leaked ops: %q", inner.ops)
	}
}

// batchLogOS is logOS with the BatchApplier capability, so the same
// assertions cover the Coalescer's batch-submission flush path.
type batchLogOS struct{ logOS }

func (l *batchLogOS) ApplyBatch(ops []ControlOp, errs []error) {
	for i, op := range ops {
		errs[i] = ApplyOp(&l.logOS, op)
	}
}

// TestCoalescerBatchSuppressesAtOpTime: while batching, an op that is the
// first of its knob in the batch and matches the mirror is counted
// suppressed and never buffered, so a steady-state batch reaches Flush
// empty. Last-wins must survive that shortcut — a knob set away from the
// mirror and back writes nothing — as must dirty marks and the
// updates-then-removes-then-restores order.
func TestCoalescerBatchSuppressesAtOpTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (OSInterface, *logOS)
	}{
		{"per-op", func() (OSInterface, *logOS) { l := &logOS{}; return l, l }},
		{"batch-applier", func() (OSInterface, *logOS) { l := &batchLogOS{}; return l, &l.logOS }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, log := tc.mk()
			c := NewCoalescer(inner, &CoalescerSeed{
				Nices:      map[int]int{11: -5, 12: 0},
				Shares:     map[string]int{"g1": 512},
				Placements: map[int]string{11: "g1", 12: "g1"},
			})

			// Steady state: every op matches the mirror.
			c.Begin()
			_ = c.EnsureCgroup("g1")
			_ = c.SetShares("g1", 512)
			_ = c.MoveThread(11, "g1")
			_ = c.SetNice(11, -5)
			if got := c.Suppressed(); got != 4 {
				t.Errorf("suppressed before Flush = %d, want 4 (suppression happens as ops arrive)", got)
			}
			if !c.buf.empty() {
				t.Errorf("matching ops were buffered: %+v", c.buf)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}

			// Away from the mirror and back within one batch: the second op
			// must be buffered over the first, and Flush drops the pair.
			c.Begin()
			_ = c.SetNice(11, 3)
			_ = c.SetNice(11, -5)
			_ = c.SetShares("g1", 64)
			_ = c.SetShares("g1", 512)
			_ = c.MoveThread(12, "g2")
			_ = c.MoveThread(12, "g1")
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(log.ops) != 0 {
				t.Errorf("away-and-back batch wrote %q, want nothing", log.ops)
			}
			if got := c.Suppressed(); got != 7 {
				t.Errorf("suppressed = %d, want 7 (one per knob of the away-and-back batch)", got)
			}

			// A repaired knob is dirty: the same value passes once.
			c.InvalidateThread(11)
			c.Begin()
			_ = c.SetNice(11, -5)
			_ = c.SetNice(12, 0)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := []string{"nice 11 -5"}; !reflect.DeepEqual(log.ops, want) {
				t.Errorf("dirty knob batch ops = %q, want %q", log.ops, want)
			}

			// A suppressed move does not disturb the batch's tail: updates,
			// then removals, then restores.
			log.ops = nil
			c.Begin()
			_ = c.RestoreThread(12)
			_ = c.RemoveCgroup("old")
			_ = c.MoveThread(12, "g1") // matches the mirror
			_ = c.SetNice(12, 4)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := []string{"nice 12 4", "remove old", "restore 12"}; !reflect.DeepEqual(log.ops, want) {
				t.Errorf("tail order = %q, want %q", log.ops, want)
			}
		})
	}
}

// TestCoalescerFlushErrors: non-vanished errors from flushed ops surface
// joined from Flush; vanished entities are benign skips (translator
// semantics), and the failed knob stays out of the mirror so the next
// attempt passes through.
func TestCoalescerFlushErrors(t *testing.T) {
	eperm := errors.New("eperm")
	inner := &logOS{failOn: map[string]error{
		"nice 10 -5": eperm,
		"nice 11 3":  fmt.Errorf("dead: %w", ErrEntityVanished),
	}}
	c := NewCoalescer(inner, nil)
	c.Begin()
	_ = c.SetNice(10, -5)
	_ = c.SetNice(11, 3)
	_ = c.SetNice(12, 0)
	err := c.Flush()
	if !errors.Is(err, eperm) {
		t.Fatalf("Flush() = %v, want wrapped eperm", err)
	}
	if errors.Is(err, ErrEntityVanished) {
		t.Error("vanished entity must be a benign skip, not a flush error")
	}
	// Neither failed write entered the mirror: both pass through again.
	inner.ops, inner.failOn = nil, nil
	_ = c.SetNice(10, -5)
	_ = c.SetNice(11, 3)
	_ = c.SetNice(12, 0) // succeeded above — suppressed now
	want := []string{"nice 10 -5", "nice 11 3"}
	if !reflect.DeepEqual(inner.ops, want) {
		t.Errorf("post-failure ops = %q, want %q", inner.ops, want)
	}
}

// TestCoalescerInvalidation: InvalidateThread/InvalidateCgroup (the
// reconciler's repair hook) mark knobs dirty so the next write passes
// through even at the mirrored value, restore the mirror on success, and
// propagate the invalidation to the wrapped chain.
func TestCoalescerInvalidation(t *testing.T) {
	inner := &logOS{}
	c := NewCoalescer(inner, nil)
	_ = c.SetNice(11, -5)
	_ = c.MoveThread(11, "g1")
	_ = c.SetShares("g1", 512)
	inner.ops = nil

	c.InvalidateThread(11)
	_ = c.SetNice(11, -5) // dirty: passes through at the same value
	_ = c.MoveThread(11, "g1")
	_ = c.SetNice(11, -5) // mirror restored: suppressed again
	_ = c.MoveThread(11, "g1")
	want := []string{"nice 11 -5", "move 11 g1"}
	if !reflect.DeepEqual(inner.ops, want) {
		t.Errorf("after InvalidateThread ops = %q, want %q", inner.ops, want)
	}

	inner.ops = nil
	c.InvalidateCgroup("g1")
	_ = c.EnsureCgroup("g1")
	_ = c.SetShares("g1", 512)
	_ = c.SetShares("g1", 512)
	want = []string{"ensure g1", "shares g1 512"}
	if !reflect.DeepEqual(inner.ops, want) {
		t.Errorf("after InvalidateCgroup ops = %q, want %q", inner.ops, want)
	}

	// Invalidations must descend the chain so backend caches drop too.
	wantInv := []string{"thread 11", "cgroup g1"}
	if !reflect.DeepEqual(inner.invalidated, wantInv) {
		t.Errorf("propagated invalidations = %q, want %q", inner.invalidated, wantInv)
	}
}

// TestCoalescerSeed: a warm-restart seed stands in for writes the previous
// process issued — first writes matching the seed are suppressed, and a
// seeded placement implies the cgroup exists.
func TestCoalescerSeed(t *testing.T) {
	inner := &logOS{}
	c := NewCoalescer(inner, &CoalescerSeed{
		Nices:      map[int]int{11: -5},
		Shares:     map[string]int{"g1": 512},
		Placements: map[int]string{11: "g1"},
	})
	_ = c.SetNice(11, -5)
	_ = c.EnsureCgroup("g1")
	_ = c.SetShares("g1", 512)
	_ = c.MoveThread(11, "g1")
	if len(inner.ops) != 0 {
		t.Errorf("seeded knobs re-issued: %q", inner.ops)
	}
	if c.Suppressed() != 4 {
		t.Errorf("Suppressed() = %d, want 4", c.Suppressed())
	}
	// A value differing from the seed still passes through.
	_ = c.SetNice(11, 0)
	if want := []string{"nice 11 0"}; !reflect.DeepEqual(inner.ops, want) {
		t.Errorf("off-seed write ops = %q, want %q", inner.ops, want)
	}
}

// TestBindingLabelDedupOnCollision: StepStats labels are exactly
// "policy/translator" for a unique pair and only gain a "#N" suffix when a
// later binding actually collides with an earlier label.
func TestBindingLabelDedupOnCollision(t *testing.T) {
	d := upDriver("eng", 100)
	mw := NewMiddleware(nil)
	for _, b := range []Binding{
		{Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()), Drivers: []Driver{d}, Period: time.Second},
		{Policy: NewQSPolicy(), Translator: NewSharesTranslator(newFakeOS(), 0, 0), Drivers: []Driver{d}, Period: time.Second},
		{Policy: NewQSPolicy(), Translator: NewNiceTranslator(newFakeOS()), Drivers: []Driver{d}, Period: time.Second},
	} {
		if err := mw.Bind(b); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := mw.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Bindings) != 3 {
		t.Fatalf("bindings in stats = %d, want 3", len(stats.Bindings))
	}
	want := []string{"qs/nice", "qs/cpu.shares", "qs/nice#2"}
	for i, bst := range stats.Bindings {
		if bst.Label != want[i] {
			t.Errorf("binding %d label = %q, want %q (dedup only on collision)", i, bst.Label, want[i])
		}
	}
}
