package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lachesis/internal/stats"
)

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailRank returns the index, in a sorted sample of n, of the p-quantile
// (nearest rank) — or, when fewer than tailBeyond samples lie beyond it, of
// the highest quantile that still has tailBeyond samples beyond it, and
// never below the median.
func tailRank(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(rank, n-1-tailBeyond)
	return max(rank, medianRank(n), 0)
}

// medianRank is the nearest-rank index of the median of n sorted samples.
func medianRank(n int) int { return max((n+1)/2-1, 0) }

type number interface{ ~int32 | ~int64 | ~float64 }

// quantiles returns the median and the supported tail percentile (see
// tailRank) of a sorted sample; both are 0 for an empty one.
func quantiles[T number](sorted []T, p float64) (median, tail T) {
	if len(sorted) == 0 {
		return 0, 0
	}
	return sorted[medianRank(len(sorted))], sorted[tailRank(len(sorted), p)]
}

// medianOf returns the median of vs (the mean of the middle two for an
// even count), 0 for none.
func medianOf(vs []float64) float64 {
	m, err := stats.Quantile(vs, 0.5)
	if err != nil {
		return 0
	}
	return m
}

// block is what one block of consecutive cycles measured. Every timing the
// benchmark reports is the median of a per-block figure over the blocks of
// a run: a stall of the host spoils one block, not the run. All times are
// reference-host nanoseconds (see hostFactors): each cycle's durations are
// converted with the cycle's own factor before any quantile is taken.
type block struct {
	Cycles             int
	CycleP50, CycleP95 float64 // over the block's cycles
	S2KP50, S2KP95     float64 // over the block's control writes
	S2KSamples         int
	CPUNs              float64 // user+sys of the process during the block's cycles
	Mallocs            uint64
	Writes             int64
	// HostSlowdown is the median over the block's cycles of the probe time
	// over refProbeNs: how much slower than the reference host ran.
	HostSlowdown float64
	// Traced runs only.
	FetchP50 float64               // over the block's Fetch calls
	SysP50   float64               // over the block's System calls
	Sums     [numTraceSums]float64 // span time per layer and per phase, over all bindings
}

// checkpoint is the kernel table after a given cycle.
type checkpoint struct {
	Cycle int
	Table kernelTable
}

// window is what a run of consecutive blocks measured.
type window struct {
	Blocks      []block
	Checkpoints []checkpoint
	Cycles      int
	Attempted   int64 // due bindings over all cycles
	Failed      int64 // of those, the ones Step reported an error for
	FirstErr    string
	WallNs      int64 // sum of the cycles' wall times, as the host ran them
	Entities    int64 // entities scheduled, over all cycles

	GCCycles   uint32
	GCPauseNs  uint64
	HeapLiveMB float64

	// Counter deltas over the window (see stack.counters).
	Counters counters

	// Deep stacks: one reconcile pass between blocks, timed as the host ran
	// it (off the cycle, so outside any probe's reach). ReconcileDrift counts
	// everything a pass found to repair, forget or fail on; the benchmark
	// interferes with nothing, so it must stay 0.
	ReconcileNs    []float64
	ReconcileDrift int
}

func cpuTime() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// minBlocks is how many blocks a window measures even when its time budget
// is spent.
const minBlocks = 3

// measure steps the stack through blocks*blockCycles cycles starting at
// cycle first, back to back, and records each block. After every cycle —
// and before the first of a block — the host probe runs once, outside the
// cycle's timing; at the end of a block every duration taken inside a
// cycle is converted to reference-host time with that cycle's factor. The
// kernel table is snapshotted before the first cycle and after every
// block. Between blocks a deep stack runs one reconcile pass.
//
// A budget above zero ends the window early, at a block boundary, once it
// is spent and minBlocks are done: on a host that has slowed to half its
// speed a run then measures fewer blocks instead of taking twice as long.
// What a block measures, and every per-cycle count, stays the same.
func measure(st *stack, t *tracer, probe *hostProbe, first, blocks, blockCycles int, budget time.Duration) (*window, error) {
	sh := st.sh
	w := &window{Blocks: make([]block, 0, blocks), Checkpoints: make([]checkpoint, 0, blocks+1)}
	var (
		segs     = make([]segment, blockCycles)
		probes   = make([]int64, blockCycles+1)
		factors  = make([]float64, blockCycles)
		slowdown = make([]float64, blockCycles)
		times    = make([]float64, blockCycles)
		sums     [][numTraceSums]int64 // traced runs: what each cycle added
	)
	// A cycle writes each entity's nice at most once and touches each
	// cgroup at most twice once the warm-up has placed every thread.
	st.sys.arm(blockCycles*(sh.entities()+2*sh.groups()), blockCycles)
	if t != nil {
		sums = make([][numTraceSums]int64, blockCycles)
	}
	w.Checkpoints = append(w.Checkpoints, checkpoint{first - 1, st.sys.table.clone()})

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, pause0 := ms0.NumGC, ms0.PauseTotalNs
	counters0 := st.counters()
	start := time.Now()
	c := first
	for b := 0; b < blocks; b++ {
		if budget > 0 && b >= minBlocks && time.Since(start) >= budget {
			break
		}
		runtime.ReadMemStats(&ms0)
		writes0 := st.sys.writes()
		probes[0] = probe.run()
		for i := 0; i < blockCycles; i++ {
			if t != nil {
				t.beginCycle(c)
			}
			cpu0, err := cpuTime()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			stats, stepErr := st.step(c)
			d := time.Since(t0)
			cpu1, err := cpuTime()
			if err != nil {
				return nil, err
			}
			segs[i] = segment{WallNs: int64(d), CPUNs: cpu1 - cpu0}
			w.WallNs += int64(d)
			c++
			st.sys.s2k.mark()
			w.Entities += int64(stats.Entities)
			w.Attempted += int64(len(stats.Bindings))
			if stepErr != nil && w.FirstErr == "" {
				w.FirstErr = stepErr.Error()
			}
			var applySum time.Duration
			for j := range stats.Bindings {
				bs := &stats.Bindings[j]
				if bs.Err != "" || bs.Quarantined {
					w.Failed++
				}
				applySum += bs.Apply
			}
			if t != nil {
				t.endCycle(d, applySum, &sums[i])
			}
			probes[i+1] = probe.run()
		}
		runtime.ReadMemStats(&ms1)

		hostFactors(segs, probes, factors, slowdown)
		bl := block{Cycles: blockCycles, Mallocs: ms1.Mallocs - ms0.Mallocs, Writes: st.sys.writes() - writes0}
		for i, seg := range segs {
			times[i] = float64(seg.WallNs) * factors[i]
			bl.CPUNs += float64(seg.CPUNs) * cpuFactor(factors[i], slowdown[i])
			if t != nil {
				for k := range bl.Sums {
					bl.Sums[k] += float64(sums[i][k]) * factors[i]
				}
			}
		}
		slices.Sort(times)
		bl.CycleP50, bl.CycleP95 = quantiles(times, 0.95)
		slices.Sort(slowdown)
		bl.HostSlowdown = slowdown[medianRank(len(slowdown))]
		s2k := st.sys.s2k.take(factors)
		s50, s95 := quantiles(s2k, 0.95)
		bl.S2KP50, bl.S2KP95, bl.S2KSamples = float64(s50), float64(s95), len(s2k)
		if t != nil {
			f50, _ := quantiles(t.fetchDur.take(factors), 0.95)
			y50, _ := quantiles(t.sysDur.take(factors), 0.95)
			bl.FetchP50, bl.SysP50 = float64(f50), float64(y50)
		}
		w.Blocks = append(w.Blocks, bl)
		w.Checkpoints = append(w.Checkpoints, checkpoint{c - 1, st.sys.table.clone()})

		if st.rec != nil {
			r0 := time.Now()
			res := st.rec.Reconcile()
			w.ReconcileNs = append(w.ReconcileNs, float64(time.Since(r0)))
			w.ReconcileDrift += res.Drifted + res.Forgotten + res.Errors
		}
	}
	w.Cycles = len(w.Blocks) * blockCycles
	w.Counters = st.counters().minus(counters0)
	runtime.ReadMemStats(&ms1)
	w.GCCycles = ms1.NumGC - gc0
	w.GCPauseNs = ms1.PauseTotalNs - pause0
	w.HeapLiveMB = float64(ms1.HeapAlloc) / (1 << 20)
	if dropped := st.sys.s2k.dropped.Load(); dropped > 0 {
		return nil, fmt.Errorf("bench: %d sample-to-kernel samples did not fit the block buffer", dropped)
	}
	return w, nil
}

// overBlocks returns the median over the window's blocks of f(block).
func (w *window) overBlocks(f func(*block) float64) float64 {
	vs := make([]float64, len(w.Blocks))
	for i := range w.Blocks {
		vs[i] = f(&w.Blocks[i])
	}
	return medianOf(vs)
}

func (w *window) writes() int64 {
	var n int64
	for i := range w.Blocks {
		n += w.Blocks[i].Writes
	}
	return n
}

func (w *window) mallocs() uint64 {
	var n uint64
	for i := range w.Blocks {
		n += w.Blocks[i].Mallocs
	}
	return n
}

// blockMedians lists every block's median cycle time in ms.
func (w *window) blockMedians() string {
	var sb strings.Builder
	for i := range w.Blocks {
		fmt.Fprintf(&sb, " %.3f", w.Blocks[i].CycleP50/1e6)
	}
	return sb.String()
}

// blockSlowdowns lists every block's host slowdown.
func (w *window) blockSlowdowns() string {
	var sb strings.Builder
	for i := range w.Blocks {
		fmt.Fprintf(&sb, " %.2f", w.Blocks[i].HostSlowdown)
	}
	return sb.String()
}

// blockSpread is the largest block median of the cycle time over the
// smallest: how quiet the host was during the run.
func (w *window) blockSpread() float64 {
	lo, hi := math.Inf(1), 0.0
	for i := range w.Blocks {
		lo, hi = min(lo, w.Blocks[i].CycleP50), max(hi, w.Blocks[i].CycleP50)
	}
	if lo <= 0 || math.IsInf(lo, 1) {
		return 0
	}
	return hi / lo
}

// verify replays the checkpoints on the reference stack and counts the
// bindings whose threads or cgroups differ at any of them. The reference
// is stepped at the checked cycles only: with a memoryless policy and no
// coalescer every step rewrites the whole table from that cycle's inputs,
// so the cycles in between leave nothing behind
// (TestReferenceSkipsEqualPrefix).
func verify(in *inputs, cps []checkpoint) (int64, error) {
	ref, err := buildReference(in)
	if err != nil {
		return 0, err
	}
	var bad int64
	for _, cp := range cps {
		if _, err := ref.step(cp.Cycle); err != nil {
			return 0, fmt.Errorf("bench: reference stack at cycle %d: %w", cp.Cycle, err)
		}
		bad += int64(cp.Table.mismatchedBindings(ref.sys.table, in.shape))
	}
	return bad, nil
}
