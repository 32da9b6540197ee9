package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
	"repro/internal/zipfian"
)

// opKind is one operation of a workload's mix.
type opKind uint8

const (
	opFind opKind = iota
	opInsert
	opDelete
	opScan
	numKinds
)

// latClass groups kinds for latency reporting: inserts and deletes are
// both updates.
type latClass uint8

const (
	latFind latClass = iota
	latUpdate
	latScan
	numClasses
)

var classNames = [numClasses]string{"find", "update", "scan"}

func classOf(k opKind) latClass {
	switch k {
	case opFind:
		return latFind
	case opScan:
		return latScan
	}
	return latUpdate
}

// caller is one closed-loop client of the system under test. do runs one
// operation and returns 1 for a mutation that landed (0 otherwise), or
// the pairs a scan reported.
type caller interface {
	do(op opKind, key uint64) (int, error)
}

// tracedCaller is implemented by callers that attach their own spans to
// a traced operation: before runs ahead of the timed call, after once
// the call's end time is taken, so neither is inside the measured span.
type tracedCaller interface {
	before(op opKind, key uint64, spanID uint64)
	after(op opKind, key uint64, spanID uint64, end int64)
}

// system is one set-up instance of a workload's program under test.
type system interface {
	newCaller(i int) caller
	// spanName names the layer call a traced op of kind k is.
	spanName(k opKind) string
	// counters snapshots the program's own cumulative counters.
	counters() map[string]float64
	// keys counts resident keys; quiescent only.
	keys() int
	// verify runs the quiescent correctness gates against the expected
	// key sum and returns them with any metrics they measured.
	verify(wantSum uint64) ([]gate, map[string]float64)
	close()
}

// mix is a workload's operation mix in percent; updates split evenly
// between inserts and deletes, scans take what is left.
type mix struct {
	findPct, updatePct int
}

// gen draws a caller's operation stream.
type gen struct {
	rng  *xrand.Rand
	zipf *zipfian.Zipf
	mix  mix
}

func newGen(seed uint64, w *workload) *gen {
	return &gen{rng: xrand.New(seed), zipf: zipfian.New(xrand.New(seed^0x5bd1e995), w.keyRange, w.zipfS), mix: w.mix}
}

func (g *gen) next() (opKind, uint64) {
	key := g.zipf.Next()
	r := int(g.rng.Uint64n(100))
	switch {
	case r < g.mix.findPct:
		return opFind, key
	case r < g.mix.findPct+g.mix.updatePct/2:
		return opInsert, key
	case r < g.mix.findPct+g.mix.updatePct:
		return opDelete, key
	}
	return opScan, key
}

// plan is how one timed phase is cut up into windows. In traced runs odd
// windows record spans and even windows do not: end-to-end figures come
// from the untraced windows, and tracing overhead is measured on
// interleaved windows of the same phase.
type plan struct {
	callers   int
	windows   int
	winLen    int64 // ns
	traced    bool
	sampleLog uint  // latency sample every 1<<sampleLog point ops
	traceLog  uint  // in traced windows, span every 1<<traceLog samples
	stall     int64 // ns without any completed op before the run fails
}

func (p plan) tracedWindow(w int) bool { return p.traced && w%2 == 1 }

// worker is one caller's private accounting. Nothing here is shared
// while the phase runs except progress, which the watchdog reads.
type worker struct {
	c        caller
	tc       tracedCaller
	g        *gen
	sys      system
	p        plan
	start    int64
	rec      *recorder
	progress atomic.Uint64
	_        [56]byte

	attempted [numKinds]uint64
	landed    [numKinds]uint64
	failed    uint64
	panics    []string
	sumDelta  uint64 // wrapping key-sum change of landed mutations
	pairs     uint64
	seq       uint64
	pending   uint64 // ops since the last window attribution

	winOps []uint64
	lat    [][numClasses][]uint32 // [window][class] sampled latency, ns
}

// run drives the caller until the last window closes. A panic inside an
// operation is recovered, counted as a failed operation and the loop
// resumes: the run then fails its gates instead of dying silently.
func (w *worker) run(stop *atomic.Bool) {
	for !w.segment(stop) {
	}
	w.winOps[len(w.winOps)-1] += w.pending
}

func (w *worker) segment(stop *atomic.Bool) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			w.failed++
			w.panics = append(w.panics, fmt.Sprint(r))
			done = stop.Load()
		}
	}()
	sampleMask := uint64(1)<<w.p.sampleLog - 1
	traceMask := uint64(1)<<w.p.traceLog - 1
	var samples uint64
	for {
		op, key := w.g.next()
		w.seq++
		w.attempted[op]++
		if op != opScan && w.seq&sampleMask != 0 {
			w.pending++
			n, err := w.c.do(op, key)
			w.account(op, key, n, err)
			continue
		}
		t0 := now()
		win := int((t0 - w.start) / w.p.winLen)
		if win >= w.p.windows || stop.Load() {
			w.attempted[op]--
			return true
		}
		w.winOps[win] += w.pending
		w.pending = 1
		var id uint64
		samples++
		if w.p.tracedWindow(win) && samples&traceMask == 0 {
			id = newSpanID()
			if w.tc != nil {
				w.tc.before(op, key, id)
				t0 = now()
			}
		}
		n, err := w.c.do(op, key)
		t1 := now()
		w.account(op, key, n, err)
		d := t1 - t0
		if d > int64(^uint32(0)) {
			d = int64(^uint32(0))
		}
		cl := classOf(op)
		w.lat[win][cl] = append(w.lat[win][cl], uint32(d))
		if id != 0 {
			w.rec.add(span{id: id, name: w.sys.spanName(op), start: t0, end: t1})
			if w.tc != nil {
				w.tc.after(op, key, id, t1)
			}
		}
		w.progress.Store(w.seq)
	}
}

func (w *worker) account(op opKind, key uint64, n int, err error) {
	if err != nil {
		w.failed++
		return
	}
	switch op {
	case opInsert:
		if n > 0 {
			w.landed[op]++
			w.sumDelta += key
		}
	case opDelete:
		if n > 0 {
			w.landed[op]++
			w.sumDelta -= key
		}
	case opScan:
		w.pairs += uint64(n)
		w.landed[op]++
	default:
		w.landed[op]++
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	attempted, failed uint64
	kinds             [numKinds]uint64 // attempted per kind
	landed            [numKinds]uint64
	sumDelta          uint64
	pairs             uint64
	panics            []string
	stalled           bool
	elapsed           float64 // s

	// Per window: throughput (Mops/s) and per-class sorted latencies.
	winMops []float64
	winLat  [][numClasses][]uint32
	spans   []span
	dropped uint64
}

// runPhase runs the workload's closed loop on a set-up system. A
// watchdog ends the run as failed when no operation completes for
// p.stall; the stuck operations count as failed and all goroutine stacks
// go to stderr.
func runPhase(sys system, rec *recorder, p plan, seed uint64, w *workload) phase {
	ws := make([]*worker, p.callers)
	for i := range ws {
		ws[i] = &worker{
			c:      sys.newCaller(i),
			g:      newGen(seed*1000003+uint64(i)+1, w),
			sys:    sys,
			p:      p,
			rec:    rec,
			winOps: make([]uint64, p.windows),
			lat:    make([][numClasses][]uint32, p.windows),
		}
		if tc, ok := ws[i].c.(tracedCaller); ok && p.traced {
			ws[i].tc = tc
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := now()
	for _, w := range ws {
		w.start = start
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(&stop)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	stalled := watch(ws, p.stall, done)
	if stalled {
		stop.Store(true)
	}
	var ph phase
	ph.elapsed = float64(now()-start) / 1e9
	if stalled {
		// The stuck callers never return; their in-flight operation is
		// the failure. Their counters are not read (they may still move).
		ph.stalled = true
		ph.attempted, ph.failed = uint64(p.callers), uint64(p.callers)
		return ph
	}
	ph.winMops = make([]float64, p.windows)
	ph.winLat = make([][numClasses][]uint32, p.windows)
	for _, w := range ws {
		for k := opKind(0); k < numKinds; k++ {
			ph.kinds[k] += w.attempted[k]
			ph.attempted += w.attempted[k]
			ph.landed[k] += w.landed[k]
		}
		ph.failed += w.failed
		ph.sumDelta += w.sumDelta
		ph.pairs += w.pairs
		ph.panics = append(ph.panics, w.panics...)
		for i := range ph.winMops {
			ph.winMops[i] += float64(w.winOps[i])
			for c := range w.lat[i] {
				ph.winLat[i][c] = append(ph.winLat[i][c], w.lat[i][c]...)
			}
		}
	}
	for i := range ph.winMops {
		ph.winMops[i] /= float64(p.winLen) / 1e3 // ops per µs = Mops/s
		for c := range ph.winLat[i] {
			slices.Sort(ph.winLat[i][c])
		}
	}
	ph.spans, ph.dropped = rec.snapshot()
	return ph
}

// watch polls the callers' progress until done closes. It returns true,
// after dumping every goroutine's stack to stderr, if no caller completed
// an operation for stall nanoseconds.
func watch(ws []*worker, stall int64, done <-chan struct{}) bool {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	last := make([]uint64, len(ws))
	lastMove := now()
	for {
		select {
		case <-done:
			return false
		case <-tick.C:
		}
		moved := false
		for i, w := range ws {
			if p := w.progress.Load(); p != last[i] {
				last[i], moved = p, true
			}
		}
		if moved {
			lastMove = now()
		} else if now()-lastMove > stall {
			dumpGoroutines(fmt.Sprintf("no operation completed for %v", time.Duration(stall)))
			return true
		}
	}
}

func dumpGoroutines(why string) {
	buf := make([]byte, 1<<22)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr, "perfbench: stall: %s; goroutine dump follows\n%s\n", why, buf[:n])
}

// meanMops is the throughput over the windows selected by keep.
func meanMops(winMops []float64, keep func(int) bool) float64 {
	var sum float64
	var n int
	for i, m := range winMops {
		if keep(i) {
			sum += m
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
