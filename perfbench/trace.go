package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clockBase is the time base every span and latency sample is measured
// from; now reads the monotonic clock relative to it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// span is one timed call into a layer, recorded by the benchmark around
// that call. parent is the span that caused it (0 for a root).
type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since clockBase
}

var spanIDs atomic.Uint64

func newSpanID() uint64 { return spanIDs.Add(1) }

// maxSpans bounds what one recorder keeps in memory; later spans are
// counted as dropped. Workloads size their trace sampling to stay below
// it, so dropping is a sign the sampling is mis-set.
const maxSpans = 1 << 19

// recorder keeps spans in memory until the run ends. Safe for concurrent
// use; callers record only sampled calls, so the lock is cold.
type recorder struct {
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *recorder) snapshot() ([]span, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// layerStat aggregates the spans of one name: count, summed duration and
// summed self time (duration minus the part of the span's interval its
// children cover).
type layerStat struct {
	N       int     `json:"n"`
	DurNs   float64 `json:"mean_ns"`
	SelfNs  float64 `json:"mean_self_ns"`
	durSum  float64
	selfSum float64
}

// layerStats computes per-name mean durations and self times.
func layerStats(spans []span) map[string]*layerStat {
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*layerStat)
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, ci := range children[s.id] {
			c := spans[ci]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		dur := s.end - s.start
		st.N++
		st.durSum += float64(dur)
		st.selfSum += float64(dur - covered(iv))
	}
	for _, st := range out {
		st.DurNs = st.durSum / float64(st.N)
		st.SelfNs = st.selfSum / float64(st.N)
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmpI64(a[0], b[0]) })
	var total, end int64
	for i, x := range iv {
		lo := x[0]
		if i > 0 && lo < end {
			lo = end
		}
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// writeSpans writes spans as TSV: id, parent, name, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
