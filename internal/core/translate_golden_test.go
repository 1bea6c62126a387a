package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Op-sequence goldens: the exact calls each built-in translator makes on
// the OS chain below it, recorded from the map-based translators this
// package had before the slice-backed ones and pinned here. Everything
// under a translator — guard, coalescer, state log, audit — sees this
// sequence, so it must not move when the translators' internals do.

// opLogOS records every call as one token; it supports removal and restore
// so stale-group collection and Reset are visible.
type opLogOS struct{ ops []string }

func (o *opLogOS) SetNice(tid, nice int) error {
	o.ops = append(o.ops, fmt.Sprintf("N(%d,%d)", tid, nice))
	return nil
}
func (o *opLogOS) EnsureCgroup(g string) error {
	o.ops = append(o.ops, "E("+g+")")
	return nil
}
func (o *opLogOS) SetShares(g string, s int) error {
	o.ops = append(o.ops, fmt.Sprintf("S(%s,%d)", g, s))
	return nil
}
func (o *opLogOS) MoveThread(tid int, g string) error {
	o.ops = append(o.ops, fmt.Sprintf("M(%d,%s)", tid, g))
	return nil
}
func (o *opLogOS) RemoveCgroup(g string) error {
	o.ops = append(o.ops, "R("+g+")")
	return nil
}
func (o *opLogOS) RestoreThread(tid int) error {
	o.ops = append(o.ops, fmt.Sprintf("T(%d)", tid))
	return nil
}

// take returns the ops recorded since the last take as one line. Stale
// groups are collected in map order, so a run of removals is sorted.
func (o *opLogOS) take() string {
	ops := o.ops
	o.ops = nil
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && strings.HasPrefix(ops[j], "R(") {
			j++
		}
		sort.Strings(ops[i:j])
		i = j + 1
	}
	return strings.Join(ops, " ")
}

// goldenEntities: four threaded operators of two queries and one operator
// without a thread of its own.
func goldenEntities() map[string]Entity {
	return map[string]Entity{
		"a": {Name: "a", Query: "q1", Thread: 11},
		"b": {Name: "b", Query: "q1", Thread: 12},
		"c": {Name: "c", Query: "q2", Thread: 13},
		"d": {Name: "d", Query: "q2", Thread: 14},
		"p": {Name: "p", Query: "q2"},
	}
}

// goldenStep is one call on the translator under test: an Apply of sched
// (reset false) or a Reset (reset true), over the entities named in ents
// ("" = all of goldenEntities).
type goldenStep struct {
	sched Schedule
	reset bool
	ents  string
	want  string
}

func single(scale Scale, kv ...any) Schedule {
	s := Schedule{Scale: scale, Single: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		s.Single[kv[i].(string)] = float64(kv[i+1].(int))
	}
	return s
}

func withGroups(s Schedule, groups map[string]Group) Schedule {
	s.Groups = groups
	return s
}

func runGolden(t *testing.T, name string, tr Translator, os *opLogOS, steps []goldenStep) {
	t.Helper()
	for i, st := range steps {
		ents := goldenEntities()
		if st.ents != "" {
			for k := range ents {
				if !strings.Contains(st.ents, k) {
					delete(ents, k)
				}
			}
		}
		var err error
		if st.reset {
			err = tr.(Resetter).Reset(ents)
		} else {
			err = tr.Apply(st.sched, ents)
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", name, i, err)
		}
		if got := os.take(); got != st.want {
			t.Errorf("%s step %d:\n got %s\nwant %s", name, i, got, st.want)
		}
	}
}

func TestTranslatorOpSequenceNice(t *testing.T) {
	os := &opLogOS{}
	lin := single(ScaleLinear, "a", 100, "b", 50, "c", 0, "d", 70, "p", 60)
	runGolden(t, "nice", NewNiceTranslator(os), os, []goldenStep{
		// Stable key set: the same sequence cycle after cycle; the
		// thread-less operator takes part in normalization but gets no op.
		{sched: lin, want: "N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
		{sched: lin, want: "N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
		// Same keys, moved priorities.
		{sched: single(ScaleLinear, "a", 0, "b", 50, "c", 100, "d", 70, "p", 60), want: "N(11,19) N(12,-1) N(13,-20) N(14,-8)"},
		// Linear <-> log alternation on one key set.
		{sched: single(ScaleLog, "a", 1000, "b", 100, "c", 1, "d", 10, "p", 1), want: "N(11,-20) N(12,-10) N(13,11) N(14,1)"},
		{sched: lin, want: "N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
		// Entity removed, then a different one added: rebuilt order.
		{sched: single(ScaleLinear, "a", 100, "c", 0, "d", 70), want: "N(11,-20) N(13,19) N(14,-8)"},
		{sched: single(ScaleLinear, "b", 10, "c", 0, "d", 70), want: "N(12,13) N(13,19) N(14,-20)"},
		// An operator scheduled but not in the entity map is skipped.
		{sched: single(ScaleLinear, "b", 10, "c", 0, "d", 70), ents: "bd", want: "N(12,13) N(14,-20)"},
		{reset: true, want: "N(11,0) N(12,0) N(13,0) N(14,0)"},
		{sched: lin, want: "N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
	})
}

func TestTranslatorOpSequenceSharesGrouped(t *testing.T) {
	os := &opLogOS{}
	g := func(p1, p2 float64) map[string]Group {
		return map[string]Group{
			"g1": {Priority: p1, Ops: []string{"b", "a", "p"}},
			"g2": {Priority: p2, Ops: []string{"c", "d"}},
		}
	}
	three := g(1, 3)
	three["g0"] = Group{Priority: 2, Ops: []string{"d"}}
	runGolden(t, "shares/grouped", NewSharesTranslator(os, 0, 0), os, []goldenStep{
		{sched: Schedule{Scale: ScaleLinear, Groups: g(1, 3)}, want: "E(g1) S(g1,8) M(12,g1) M(11,g1) E(g2) S(g2,8192) M(13,g2) M(14,g2)"},
		{sched: Schedule{Scale: ScaleLinear, Groups: g(1, 3)}, want: "E(g1) S(g1,8) M(12,g1) M(11,g1) E(g2) S(g2,8192) M(13,g2) M(14,g2)"},
		{sched: Schedule{Scale: ScaleLog, Groups: g(100, 1)}, want: "E(g1) S(g1,8192) M(12,g1) M(11,g1) E(g2) S(g2,8) M(13,g2) M(14,g2)"},
		// Group added.
		{sched: Schedule{Scale: ScaleLinear, Groups: three}, want: "E(g0) S(g0,4100) M(14,g0) E(g1) S(g1,8) M(12,g1) M(11,g1) E(g2) S(g2,8192) M(13,g2) M(14,g2)"},
		// Groups removed: the stale cgroups go exactly once.
		{sched: Schedule{Scale: ScaleLinear, Groups: map[string]Group{"g1": {Priority: 1, Ops: []string{"a"}}}}, want: "E(g1) S(g1,4100) M(11,g1) R(g0) R(g2)"},
		{sched: Schedule{Scale: ScaleLinear, Groups: map[string]Group{"g1": {Priority: 1, Ops: []string{"a"}}}}, want: "E(g1) S(g1,4100) M(11,g1)"},
		// Reset, then Apply of the key set from before the Reset re-creates
		// the groups, and the next change of the set still collects them.
		{reset: true, want: "T(11) T(12) T(13) T(14) R(g1)"},
		{sched: Schedule{Scale: ScaleLinear, Groups: map[string]Group{"g1": {Priority: 1, Ops: []string{"a"}}}}, want: "E(g1) S(g1,4100) M(11,g1)"},
		{sched: Schedule{Scale: ScaleLinear, Groups: map[string]Group{"g2": {Priority: 1, Ops: []string{"c"}}}}, want: "E(g2) S(g2,4100) M(13,g2) R(g1)"},
		{reset: true, ents: "c", want: "T(13) R(g2)"},
		{reset: true, ents: "c", want: "T(13)"},
	})
}

func TestTranslatorOpSequenceSharesPerOperator(t *testing.T) {
	os := &opLogOS{}
	lin := single(ScaleLinear, "a", 100, "b", 50, "c", 0, "p", 60)
	runGolden(t, "shares/per-op", NewSharesTranslator(os, 2, 1000), os, []goldenStep{
		{sched: lin, want: "E(a) S(a,1000) M(11,a) E(b) S(b,501) M(12,b) E(c) S(c,2) M(13,c) E(p) S(p,601)"},
		{sched: lin, want: "E(a) S(a,1000) M(11,a) E(b) S(b,501) M(12,b) E(c) S(c,2) M(13,c) E(p) S(p,601)"},
		{sched: single(ScaleLog, "a", 1000, "b", 10, "c", 0, "p", 1), want: "E(a) S(a,1000) M(11,a) E(b) S(b,834) M(12,b) E(c) S(c,2) M(13,c) E(p) S(p,751)"},
		// Operator replaced: its cgroup is collected once.
		{sched: single(ScaleLinear, "a", 100, "b", 50, "d", 0, "p", 60), want: "E(a) S(a,1000) M(11,a) E(b) S(b,501) M(12,b) E(d) S(d,2) M(14,d) E(p) S(p,601) R(c)"},
		{sched: single(ScaleLinear, "a", 100, "b", 50, "d", 0, "p", 60), want: "E(a) S(a,1000) M(11,a) E(b) S(b,501) M(12,b) E(d) S(d,2) M(14,d) E(p) S(p,601)"},
		// An explicit grouping over the same names is a grouping again.
		{sched: Schedule{Scale: ScaleLinear, Groups: map[string]Group{"a": {Priority: 1, Ops: []string{"b"}}, "b": {Priority: 2, Ops: []string{"a"}}}}, want: "E(a) S(a,2) M(12,a) E(b) S(b,1000) M(11,b) R(d) R(p)"},
		{sched: single(ScaleLinear, "a", 1, "b", 2), want: "E(a) S(a,2) M(11,a) E(b) S(b,1000) M(12,b)"},
	})
}

func TestTranslatorOpSequenceCombined(t *testing.T) {
	os := &opLogOS{}
	perQuery := map[string]Group{
		"query-q1": {Priority: 1, Ops: []string{"a", "b"}},
		"query-q2": {Priority: 1, Ops: []string{"d", "c", "p"}},
	}
	lin := withGroups(single(ScaleLinear, "a", 100, "b", 50, "c", 0, "d", 70, "p", 60), perQuery)
	runGolden(t, "combined", NewCombinedTranslator(os, 0, 0), os, []goldenStep{
		{sched: lin, want: "E(query-q1) S(query-q1,4100) M(11,query-q1) M(12,query-q1) E(query-q2) S(query-q2,4100) M(14,query-q2) M(13,query-q2) N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
		{sched: lin, want: "E(query-q1) S(query-q1,4100) M(11,query-q1) M(12,query-q1) E(query-q2) S(query-q2,4100) M(14,query-q2) M(13,query-q2) N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
		// A query goes away: its cgroup is collected, its operators are no
		// longer reniced.
		{sched: withGroups(single(ScaleLinear, "a", 1, "b", 2), map[string]Group{"query-q1": perQuery["query-q1"]}), want: "E(query-q1) S(query-q1,4100) M(11,query-q1) M(12,query-q1) R(query-q2) N(11,19) N(12,-20)"},
		// Groups without single priorities: shares only.
		{sched: Schedule{Scale: ScaleLinear, Groups: perQuery}, want: "E(query-q1) S(query-q1,4100) M(11,query-q1) M(12,query-q1) E(query-q2) S(query-q2,4100) M(14,query-q2) M(13,query-q2)"},
		{reset: true, want: "N(11,0) N(12,0) N(13,0) N(14,0) T(11) T(12) T(13) T(14) R(query-q1) R(query-q2)"},
		{sched: lin, want: "E(query-q1) S(query-q1,4100) M(11,query-q1) M(12,query-q1) E(query-q2) S(query-q2,4100) M(14,query-q2) M(13,query-q2) N(11,-20) N(12,-1) N(13,19) N(14,-8)"},
	})
}

// One translator instance shared by two bindings over different entities
// re-sorts on every call, and its stale-group collection thrashes exactly
// as it always has: each binding's apply removes the other's groups.
func TestTranslatorOpSequenceSharedInstance(t *testing.T) {
	os := &opLogOS{}
	a := single(ScaleLinear, "a", 1, "b", 2)
	c := single(ScaleLinear, "c", 5, "d", 1)
	runGolden(t, "shared shares", NewSharesTranslator(os, 0, 0), os, []goldenStep{
		{sched: a, ents: "ab", want: "E(a) S(a,8) M(11,a) E(b) S(b,8192) M(12,b)"},
		{sched: c, ents: "cd", want: "E(c) S(c,8192) M(13,c) E(d) S(d,8) M(14,d) R(a) R(b)"},
		{sched: a, ents: "ab", want: "E(a) S(a,8) M(11,a) E(b) S(b,8192) M(12,b) R(c) R(d)"},
		{sched: c, ents: "cd", want: "E(c) S(c,8192) M(13,c) E(d) S(d,8) M(14,d) R(a) R(b)"},
	})
	runGolden(t, "shared nice", NewNiceTranslator(os), os, []goldenStep{
		{sched: a, ents: "ab", want: "N(11,19) N(12,-20)"},
		{sched: c, ents: "cd", want: "N(13,-20) N(14,19)"},
		{sched: a, ents: "ab", want: "N(11,19) N(12,-20)"},
		{sched: c, ents: "cd", want: "N(13,-20) N(14,19)"},
	})
}
