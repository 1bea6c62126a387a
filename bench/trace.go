package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// The layers a traced run records a span for, one per call into the layer.
// The order is the order of the write chain, outermost first.
const (
	layerFetch       = iota // core.Driver.Fetch
	layerPolicy             // core.Policy.Schedule / ScheduleInto
	layerTranslate          // core.Translator.Apply
	layerGuard              // control ops entering guard.OpGuard (buffered until FinishApply)
	layerGuardFinish        // core.ApplyGuard.FinishApply: validation, then release downstream
	layerCoalesce           // control ops entering core.Coalescer (buffered until Flush)
	layerRecord             // control ops entering reconcile.RecordingOS
	layerAudit              // control ops entering core.AuditOS
	layerSubmit             // control ops entering driver.QueuedOS, above the queue
	layerBackend            // control ops entering oslinux.Control, below the queue
	layerSystem             // calls reaching oslinux.System
	numLayers
)

// What a traced cycle adds up, besides its spans per layer.
const (
	sumFetchPhase = numLayers + iota // first Fetch call -> last Fetch return
	sumSubmitWait                    // enqueue above the write queue -> backend call below it, per op
	sumResidual                      // Step wall minus fetch phase and apply phase
	sumApply                         // the middleware's own apply timing (StepStats), over bindings
	numTraceSums
)

var layerNames = [numLayers]string{
	"driver.fetch", "core.policy", "core.translate", "guard.opguard", "guard.finish",
	"core.coalesce", "reconcile.record", "core.audit", "driver.submit", "oslinux.control",
	"oslinux.system",
}

// layerAgg sums one layer's spans for one binding. A binding's spans are
// sequential (one apply worker at a time, the write queue's caller blocked
// while the writer runs), so the sums need no synchronization.
type layerAgg struct {
	ns    int64
	calls int64
}

// spanRec is one recorded span. Parent is the index of the enclosing span
// of the same binding and cycle, -1 for a span entered from the middleware.
type spanRec struct {
	Layer   int8
	Binding int32
	Cycle   int32
	Parent  int32
	Start   int64 // ns since the tracer's epoch
	End     int64
}

// tracer is the traced run's recorder. Every span adds to its layer's
// aggregate; the spans of every stride-th cycle are also kept whole, in a
// buffer allocated up front, and written out when the run ends.
type tracer struct {
	epoch time.Time
	agg   [][numLayers]layerAgg // per binding

	// Per-cycle marks, reset by beginCycle and folded by endCycle.
	fetchStart, fetchEnd []int64 // per binding's driver
	applyStart, lastEnd  []int64 // per binding: first policy span start, last span end
	submitAt             []int64 // per binding: entry of the enqueue in flight above the queue

	// Totals at the end of the previous cycle: endCycle reports what the
	// cycle added to them.
	prevLayerNs    [numLayers]int64
	prevSubmitWait int64

	submitWaitNs, submitWaits atomic.Int64
	guardBlocked              atomic.Int64

	fetchDur, sysDur *sampleBuf // per-call durations of the current block

	spans   []spanRec
	nspans  atomic.Int64
	dropped atomic.Int64
	open    [][]int32 // per binding: indices of its open recorded spans
	stride  int
	cycle   int32
	sampled bool
}

// spanCapacity bounds the spans kept whole; about 7 MB as JSONL.
const spanCapacity = 1 << 16

func newTracer(sh shape, blockCycles int) *tracer {
	t := &tracer{
		epoch:      time.Now(),
		agg:        make([][numLayers]layerAgg, sh.Bindings),
		fetchStart: make([]int64, sh.Bindings), fetchEnd: make([]int64, sh.Bindings),
		applyStart: make([]int64, sh.Bindings), lastEnd: make([]int64, sh.Bindings),
		submitAt: make([]int64, sh.Bindings),
		fetchDur: newSampleBuf(sh.Bindings*blockCycles, blockCycles),
		// Every entity may be written several ways in a cycle; cold cycles
		// aside, a block stays far below this.
		sysDur: newSampleBuf(sh.entities()*blockCycles, blockCycles),
		spans:  make([]spanRec, spanCapacity),
		open:   make([][]int32, sh.Bindings),
	}
	for b := range t.open {
		t.open[b] = make([]int32, 0, numLayers)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startRecording ends the warm-up, during which spans only add to the
// aggregates: it picks the stride that lets the spans of the cycles to
// come fit the buffer, going by the calls per cycle seen so far, and
// starts every sum from zero.
func (t *tracer) startRecording(cycles, warmup int) {
	var calls int64
	for layer := 0; layer < numLayers; layer++ {
		_, n := t.total(layer)
		calls += n
	}
	perCycle := calls/int64(max(warmup, 1)) + 1
	whole := max(spanCapacity/perCycle, 1) // cycles whose spans fit the buffer
	t.stride = int((int64(cycles) + whole - 1) / whole)
	clear(t.agg)
	clear(t.submitAt)
	t.prevLayerNs = [numLayers]int64{}
	t.prevSubmitWait = 0
	t.submitWaitNs.Store(0)
	t.submitWaits.Store(0)
	t.guardBlocked.Store(0)
	t.fetchDur.take(nil)
	t.sysDur.take(nil)
}

// beginCycle opens cycle c. Once recording, the spans of every stride-th
// cycle are kept whole.
func (t *tracer) beginCycle(c int) {
	t.cycle = int32(c)
	t.sampled = t.stride > 0 && c%t.stride == 0
	for b := range t.applyStart {
		t.fetchStart[b], t.fetchEnd[b], t.applyStart[b], t.lastEnd[b] = 0, 0, 0, 0
	}
}

// endCycle closes the cycle, whose Step took wall and whose bindings'
// apply timings add up to applySum, and stores in added what the cycle
// added to every layer's span time and to the per-phase sums. It also
// closes the cycle's run in the per-call sample buffers.
func (t *tracer) endCycle(wall, applySum time.Duration, added *[numTraceSums]int64) {
	for layer := 0; layer < numLayers; layer++ {
		ns, _ := t.total(layer)
		added[layer] = ns - t.prevLayerNs[layer]
		t.prevLayerNs[layer] = ns
	}
	fetchPhase := extent(t.fetchStart, t.fetchEnd)
	applyPhase := extent(t.applyStart, t.lastEnd)
	submitWait := t.submitWaitNs.Load()
	added[sumFetchPhase] = int64(fetchPhase)
	added[sumSubmitWait] = submitWait - t.prevSubmitWait
	added[sumResidual] = int64(wall - fetchPhase - applyPhase)
	added[sumApply] = int64(applySum)
	t.prevSubmitWait = submitWait
	t.fetchDur.mark()
	t.sysDur.mark()
}

// extent is the time from the earliest nonzero start to the latest end.
func extent(starts, ends []int64) time.Duration {
	var lo, hi int64
	for i, s := range starts {
		if s != 0 && (lo == 0 || s < lo) {
			lo = s
		}
		hi = max(hi, ends[i])
	}
	if lo == 0 || hi < lo {
		return 0
	}
	return time.Duration(hi - lo)
}

// enter opens a span of the given layer for binding b.
func (t *tracer) enter(layer, b int) (start int64, idx int32) {
	start = t.now()
	idx = -1
	if t.sampled {
		if i := t.nspans.Add(1) - 1; i < int64(len(t.spans)) {
			idx = int32(i)
			parent := int32(-1)
			if st := t.open[b]; len(st) > 0 {
				parent = st[len(st)-1]
			}
			t.spans[idx] = spanRec{Layer: int8(layer), Binding: int32(b), Cycle: t.cycle, Parent: parent, Start: start}
			t.open[b] = append(t.open[b], idx)
		} else {
			t.dropped.Add(1)
		}
	}
	switch layer {
	case layerFetch:
		t.fetchStart[b] = start
	case layerPolicy:
		t.applyStart[b] = start
	case layerSubmit:
		t.submitAt[b] = start
	case layerBackend:
		if at := t.submitAt[b]; at != 0 {
			// Enqueue above the queue -> backend call below it.
			t.submitWaitNs.Add(start - at)
			t.submitWaits.Add(1)
			t.submitAt[b] = 0
		}
	}
	return start, idx
}

// exit closes the span enter opened.
func (t *tracer) exit(layer, b int, start int64, idx int32) {
	end := t.now()
	a := &t.agg[b][layer]
	a.ns += end - start
	a.calls++
	switch layer {
	case layerFetch:
		t.fetchEnd[b] = end
		t.fetchDur.add(time.Duration(end - start))
	case layerSystem:
		t.sysDur.add(time.Duration(end - start))
		t.lastEnd[b] = end
	default:
		t.lastEnd[b] = end
	}
	if idx >= 0 {
		t.spans[idx].End = end
		t.open[b] = t.open[b][:len(t.open[b])-1]
	}
}

// total sums one layer over all bindings.
func (t *tracer) total(layer int) (ns, calls int64) {
	for b := range t.agg {
		ns += t.agg[b][layer].ns
		calls += t.agg[b][layer].calls
	}
	return ns, calls
}

// writeSpans writes the kept spans as JSON lines: name, start, end,
// parent span, cycle, binding.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.nspans.Load(), int64(len(t.spans)))
	for i, sp := range t.spans[:n] {
		err = enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int32  `json:"parent"`
			Cycle   int32  `json:"cycle"`
			Binding int32  `json:"binding"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{i, layerNames[sp.Layer], sp.Parent, sp.Cycle, sp.Binding, sp.Start, sp.End})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
