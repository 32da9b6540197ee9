package core

// Footprint gates and the per-layer descent benchmark. Each node layout
// must fill a small Go size class exactly (so Stats' byte totals are the
// heap the nodes really take), and a prefilled tree's heap per resident
// key must stay within what the two layouts allow: a field added to a
// node that pushes it into the next size class fails here first.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// allocatedBlock returns the heap bytes one object made by alloc
// occupies: Go rounds every small allocation up to its size class.
func allocatedBlock(alloc func() any) int64 {
	const n = 1 << 12
	keep := make([]any, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = alloc()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.TotalAlloc-before.TotalAlloc) / n
}

func TestNodeLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name   string
		size   int64 // the constant Stats counts with
		budget int64
		alloc  func() any
	}{
		{"leaf", leafBlock, 320, func() any { return new(leafNode) }},
		{"internal", innerBlock, 288, func() any { return new(innerNode) }},
		{"elimination record", recordBlock, 32, func() any { return new(ElimRecord) }},
	} {
		if got := allocatedBlock(c.alloc); got != c.size {
			t.Errorf("%s: Go allocates %d B per object but the layout is %d B: it no longer fills its size class", c.name, got, c.size)
		}
		if c.size > c.budget {
			t.Errorf("%s layout is %d B, over its %d B budget", c.name, c.size, c.budget)
		}
	}
}

// prefillUniform builds an Elim-ABtree the way the repository benchmark
// builds its in-process trees: uniform keys from [1, 2*resident] in
// 128-key InsertBatch calls until resident keys landed. It returns the
// tree and the heap it added per resident key, measured after a GC.
func prefillUniform(tb testing.TB, resident int, seed uint64) (*Tree, float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New(WithElimination())
	th := tr.NewThread()
	rng := xrand.New(seed)
	keys, prev, ok := make([]uint64, 128), make([]uint64, 128), make([]bool, 128)
	for landed := 0; landed < resident; {
		n := len(keys)
		if resident-landed < n {
			n = resident - landed
		}
		for i := 0; i < n; i++ {
			keys[i] = 1 + rng.Uint64n(2*uint64(resident))
		}
		th.InsertBatch(keys[:n], keys[:n], prev[:n], ok[:n])
		for _, in := range ok[:n] {
			if in {
				landed++
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(th)
	return tr, float64(after.HeapAlloc-before.HeapAlloc) / float64(tr.Len())
}

// TestHeapBytesPerKey: a 100k-key tree costs at most 58 heap bytes per
// resident key, and Stats' byte totals account for nearly all of it.
func TestHeapBytesPerKey(t *testing.T) {
	const resident, budget = 100_000, 58.0
	tr, perKey := prefillUniform(t, resident, 1)
	if perKey > budget {
		t.Errorf("heap is %.1f B per resident key, over the %.0f B budget", perKey, budget)
	}
	s := tr.Stats()
	counted := float64(s.LeafBytes+s.InternalBytes) / float64(s.Keys)
	if counted < 0.95*perKey || counted > 1.05*perKey {
		t.Errorf("Stats counts %.1f B per key, measured heap is %.1f B per key: want within 5%%", counted, perKey)
	}
	t.Logf("%d keys: heap %.1f B/key, Stats %.1f B/key (%d leaves, %d internal)", s.Keys, perKey, counted, s.Leaves, s.Internal)
}

// findSink keeps BenchmarkFind's lookups from being optimized away.
var findSink uint64

// BenchmarkFind times one lock-free Find (descent plus the leaf's double
// collect) on uniform keys, in a tree that fits in the CPU caches (64k
// keys) and one that does not (4M keys). B/key is the tree's heap per
// resident key after a GC.
func BenchmarkFind(b *testing.B) {
	for _, resident := range []int{1 << 16, 1 << 22} {
		var tr *Tree // built once, reused as b.Run ramps b.N
		var perKey float64
		b.Run(fmt.Sprintf("keys=%d", resident), func(b *testing.B) {
			if tr == nil {
				tr, perKey = prefillUniform(b, resident, 1)
			}
			th := tr.NewThread()
			rng := xrand.New(2)
			span := 2 * uint64(resident)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				findSink, _ = th.Find(1 + rng.Uint64n(span))
			}
			b.ReportMetric(perKey, "B/key")
		})
	}
}
