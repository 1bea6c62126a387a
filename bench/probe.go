package main

import (
	"math"
	"slices"
	"strconv"
	"time"
)

// The host the benchmark runs on is a small virtual machine whose virtual
// processors share physical cores with other tenants. Whenever the sibling
// hyperthread of the core under the benchmark is busy, the decision loop
// runs 1.3 to 1.5 times slower; the host flips between the two states
// every few seconds, and ten runs of one binary then spread by 15-50 %
// (README.md, "Reference-host time", has the measurements). No statistic
// over raw timings removes that, so the benchmark measures the host along
// with the program: after every cycle it runs a fixed piece of work, the
// probe, and converts the cycle's timings to what they would have been on
// a host that runs the probe in refProbeNs.

const (
	probeEntities = 4096
	probeGroup    = 32 // operators ranked together, like one query's
	probeSlots    = 2 * probeEntities

	// refProbeNs is what one probe takes on the reference host (one
	// processor of a 2.1 GHz Xeon guest) right after a busy cycle while
	// nothing contends for the core. It fixes the unit of every reported
	// timing: milliseconds of the reference host.
	refProbeNs = 350e3

	// probeWindow is how many neighbouring cycles' probe readings the host
	// speed of a cycle is the median of. A probe that a garbage collection
	// overlapped says more about the program than about the host; the
	// median of five drops it, and the host changes state much more slowly
	// than five cycles pass.
	probeWindow = 5
)

type probeSlot struct {
	name string
	val  float64
}

type probeEntity struct {
	name string
	tid  int
	val  float64
}

// hostProbe is a fixed amount of work of the kind the decision loop does:
// values stored and found under string names, small sorts, integers
// formatted into paths, a table updated. It is compiled from this file
// alone, allocates nothing and touches no state of the program under test,
// so no change to the program can move it; what moves it is the host.
type hostProbe struct {
	slots []probeSlot // open addressing, linear probing
	ents  []probeEntity
	nice  []int32
	buf   []byte
	round uint64
	sink  uint64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		slots: make([]probeSlot, probeSlots),
		ents:  make([]probeEntity, probeEntities),
		nice:  make([]int32, probeEntities),
		buf:   make([]byte, 0, 64),
	}
	for i := range p.ents {
		name := opName(i/probeGroup, i%probeGroup)
		p.ents[i] = probeEntity{name: name, tid: tidBase + i}
		p.slot(name).name = name
	}
	return p
}

// slot finds the slot holding name, or the free slot it belongs in.
func (p *hostProbe) slot(name string) *probeSlot {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	for i := h % probeSlots; ; i = (i + 1) % probeSlots {
		if s := &p.slots[i]; s.name == name || s.name == "" {
			return s
		}
	}
}

// run does the probe's work once and returns how long it took.
func (p *hostProbe) run() int64 {
	start := time.Now()
	p.round++
	for i := range p.ents {
		p.slot(p.ents[i].name).val = float64((uint64(i)*2654435761 + p.round*40503) % 977)
	}
	for i := range p.ents {
		p.ents[i].val = p.slot(p.ents[i].name).val
	}
	for g := 0; g+probeGroup <= len(p.ents); g += probeGroup {
		slices.SortFunc(p.ents[g:g+probeGroup], func(a, b probeEntity) int {
			switch {
			case a.val < b.val:
				return -1
			case a.val > b.val:
				return 1
			}
			return a.tid - b.tid
		})
	}
	for i := range p.ents {
		e := &p.ents[i]
		p.buf = strconv.AppendInt(append(p.buf[:0], cgroupRoot...), int64(e.tid), 10)
		p.buf = append(p.buf, "/cpu.shares"...)
		p.nice[e.tid-tidBase] = int32(e.val)
		p.sink += uint64(len(p.buf)) + uint64(p.buf[len(cgroupRoot)])
	}
	return int64(time.Since(start))
}

// segment is one stretch of the program's work, timed on the wall clock
// and on the process's CPU clock, with a probe reading on either side.
type segment struct {
	WallNs, CPUNs int64
}

// hostFactors converts measured durations to reference-host time. segs[i]
// ran between the probe readings probes[i] and probes[i+1]; factors[i] is
// what every duration measured inside segs[i] is multiplied by, and
// slowdown[i] how many times slower than the reference host the processor
// ran during it.
//
// The host speed of a segment is the median, over the probeWindow segments
// around it, of the mean of a segment's two readings; its ratio to
// refProbeNs says how much slower than the reference host the processor
// ran just then. Only the time the process spent on the processor is
// divided by that ratio: with r the share of the segment the process was
// on the CPU, the factor is 1 - r + r*refProbeNs/speed. A segment that
// keeps the processor busy is converted in full; one that mostly waits —
// for a fetch's round trip — is left as measured.
func hostFactors(segs []segment, probes []int64, factors, slowdown []float64) {
	n := len(segs)
	speed := make([]float64, n)
	for i := range segs {
		speed[i] = float64(probes[i]+probes[i+1]) / 2
	}
	window := make([]float64, 0, probeWindow)
	for i, s := range segs {
		lo, hi := max(i-probeWindow/2, 0), min(i+probeWindow/2+1, n)
		window = append(window[:0], speed[lo:hi]...)
		slices.Sort(window)
		onCPU := 0.0
		if s.WallNs > 0 {
			onCPU = min(float64(s.CPUNs)/float64(s.WallNs), 1)
		}
		slowdown[i] = window[len(window)/2] / refProbeNs
		factors[i] = 1 - onCPU + onCPU/slowdown[i]
	}
}

// cpuFactor is what the CPU time of a segment is multiplied by, given the
// segment's factor and slowdown from hostFactors: the geometric mean of
// converting it in full (it is all time on the processor) and converting
// it like the segment's durations. For a busy segment the two are the
// same. The short bursts of a segment that mostly waits start on a
// processor that has gone cold and spend much of their time refilling its
// caches, which a busy sibling thread does not slow down: on the
// wait-dominated workload, between a quiet hour and a contended one, CPU
// time converted in full read 17 % low, left as measured 25 % high, and
// converted by this rule within 5 %.
func cpuFactor(factor, slowdown float64) float64 {
	return math.Sqrt(factor / slowdown)
}
