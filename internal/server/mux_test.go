package server

// ISSUE 7 coverage: the coalescing client mux end to end over a live
// loopback server (differential shadow-map checks, the linearizability
// suite through one shared connection, ops racing explicit batches, a
// 0-alloc gate on the warmed submit path), the server-side
// cross-connection coalescing sweep (differential + coalesce_batch_size
// evidence), and the shed-on-overload admission-control path.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/linearizability"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// startServerCfg is startServer with a full Config — the coalescing and
// admission-control tests need more than a worker count.
func startServerCfg(t *testing.T, name string, keyRange uint64, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(testBuilder, name, keyRange, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// startMux spins up a server plus a connected coalescing mux, both torn
// down with the test (mux first — Close must not race in-flight ops).
func startMux(t *testing.T, name string, keyRange uint64, workers int, mcfg client.MuxConfig) (*Server, *client.Mux) {
	t.Helper()
	s, addr := startServerCfg(t, name, keyRange, Config{Workers: workers})
	m, err := client.DialMux(addr, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return s, m
}

// TestMuxPointOps is the mux differential test: many goroutines hammer
// per-key ops through shared connection(s), each checking its own
// disjoint key stripe against a shadow map (disjoint stripes keep every
// per-goroutine check deterministic despite cross-goroutine
// coalescing), then the aggregate key sum is cross-checked server-side.
func TestMuxPointOps(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(map[int]string{1: "one-conn", 2: "two-conns"}[conns], func(t *testing.T) {
			// Window 1 on the single-conn case makes coalescing
			// structural: while the lone credit is in flight every other
			// caller parks in the submission queue, so the next frame
			// must carry them together.
			cfg := client.MuxConfig{Conns: conns}
			if conns == 1 {
				cfg.Window = 1
			}
			_, m := startMux(t, "occ", 1<<20, 4, cfg)
			const (
				goroutines = 8
				ops        = 3000
				stripe     = uint64(1) << 10
			)
			var keySum atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := m.NewHandle()
					base := 1 + uint64(g)*stripe
					model := make(map[uint64]uint64)
					rng := xrand.New(uint64(g)*2654435761 + 5)
					for i := 0; i < ops; i++ {
						k := base + rng.Uint64n(stripe)
						switch rng.Uint64n(3) {
						case 0:
							v := rng.Uint64()
							prev, ins := h.Insert(k, v)
							mv, had := model[k]
							if ins == had || (had && prev != mv) {
								t.Errorf("g%d Insert(%d) = %d,%v; model %d,%v", g, k, prev, ins, mv, had)
								return
							}
							if !had {
								model[k] = v
							}
						case 1:
							prev, del := h.Delete(k)
							mv, had := model[k]
							if del != had || (had && prev != mv) {
								t.Errorf("g%d Delete(%d) = %d,%v; model %d,%v", g, k, prev, del, mv, had)
								return
							}
							delete(model, k)
						default:
							v, ok := h.Find(k)
							mv, had := model[k]
							if ok != had || (had && v != mv) {
								t.Errorf("g%d Find(%d) = %d,%v; model %d,%v", g, k, v, ok, mv, had)
								return
							}
						}
					}
					var sum uint64
					for k := range model {
						sum += k
					}
					keySum.Add(sum)
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got, want := m.KeySum(), keySum.Load(); got != want {
				t.Errorf("KeySum = %d, want %d", got, want)
			}
			cs := m.CoalesceStats()
			if cs.Count == 0 {
				t.Error("mux recorded no coalesced frames")
			}
			// Only the single-conn case guarantees enough submission
			// overlap to demand a shared frame; with 2 conns on a fast
			// loopback the callers can stay perfectly staggered.
			if conns == 1 && cs.Max() < 2 {
				t.Errorf("mux coalesce max = %d, want >= 2 (8 workers on one conn never shared a frame)", cs.Max())
			}
			if got := m.Inflight(); got != 0 {
				t.Errorf("mux_inflight = %d after quiescence, want 0", got)
			}
		})
	}
}

// TestMuxExplicitBatch: dict.Batcher calls pass through the shared
// connection — equal keys still apply in input order within a frame,
// and batches above wire.MaxBatch split and reassemble in input order.
func TestMuxExplicitBatch(t *testing.T) {
	_, m := startMux(t, "occ", 1<<20, 4, client.MuxConfig{})
	b := m.NewHandle().(dict.Batcher)

	keys := []uint64{5, 5, 7, 5}
	vals := []uint64{10, 20, 30, 40}
	prev := make([]uint64, len(keys))
	ok := make([]bool, len(keys))
	b.InsertBatch(keys, vals, prev, ok)
	want := []struct {
		ok   bool
		prev uint64
	}{{true, 0}, {false, 10}, {true, 0}, {false, 10}}
	for i, w := range want {
		if ok[i] != w.ok || (!w.ok && prev[i] != w.prev) {
			t.Errorf("InsertBatch[%d] = %d,%v, want %d,%v", i, prev[i], ok[i], w.prev, w.ok)
		}
	}

	n := wire.MaxBatch + 100 // splits into two pipelined frames
	bk := make([]uint64, n)
	bv := make([]uint64, n)
	res := make([]uint64, n)
	oks := make([]bool, n)
	for i := range bk {
		bk[i] = 100 + uint64(i)
		bv[i] = uint64(i)*3 + 1
	}
	b.InsertBatch(bk, bv, res, oks)
	b.FindBatch(bk, res, oks)
	for i := range bk {
		if !oks[i] || res[i] != bv[i] {
			t.Fatalf("multi-frame FindBatch[%d] = %d,%v, want %d,true", i, res[i], oks[i], bv[i])
		}
	}
}

// TestMuxLinearizability records concurrent per-key histories from many
// goroutines through ONE shared connection (plus whole-keyset snapshot
// scans) and feeds them to the Wing&Gong checker: coalescing must
// preserve per-key linearizability end to end.
func TestMuxLinearizability(t *testing.T) {
	_, m := startMux(t, "shard4", 64, 4, client.MuxConfig{})
	keys := []uint64{3, 9, 17, 33, 49, 60} // spread across the 4 shards
	history := linearizability.Record(func() linearizability.DictHandle {
		return m.NewHandle().(linearizability.DictHandle)
	}, linearizability.RecordConfig{
		Workers:   8,
		OpsPerKey: 20,
		Keys:      keys,
		Seed:      42,
		RangeOps:  30,
	})
	if len(history) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("mux history not linearizable: %v", err)
	}
}

// TestMuxLinearizableRacingBatch: point ops coalescing on the shared
// connection race an explicit multi-frame batch on the SAME connection;
// the combined history (batch keys expanded per the dict.Batcher
// contract) must stay linearizable.
func TestMuxLinearizableRacingBatch(t *testing.T) {
	_, m := startMux(t, "occ", 1<<16, 4, client.MuxConfig{})
	keys := []uint64{5, 6}
	var clock atomic.Int64
	var mu sync.Mutex
	var history []linearizability.Op

	record := func(op linearizability.Op) {
		mu.Lock()
		history = append(history, op)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			rng := xrand.New(uint64(w) + 7)
			for i := 0; i < 12; i++ {
				k := keys[rng.Intn(len(keys))]
				op := linearizability.Op{Key: k, ThreadID: w, Kind: linearizability.OpKind(rng.Intn(3))}
				op.Call = clock.Add(1)
				switch op.Kind {
				case linearizability.OpFind:
					op.OutVal, op.OutOK = h.Find(k)
				case linearizability.OpInsert:
					op.Arg = rng.Uint64()%100 + 1
					op.OutVal, op.OutOK = h.Insert(k, op.Arg)
				default:
					op.OutVal, op.OutOK = h.Delete(k)
				}
				op.Return = clock.Add(1)
				record(op)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := m.NewHandle().(dict.Batcher)
		n := wire.MaxBatch + 50
		bk := make([]uint64, n)
		bv := make([]uint64, n)
		res := make([]uint64, n)
		ok := make([]bool, n)
		rng := xrand.New(1234)
		for round := 0; round < 6; round++ {
			for i := range bk {
				bk[i] = 1000 + uint64(i) // filler keys, disjoint from the recorded ones
				bv[i] = uint64(round)*10 + 1
			}
			bk[100], bk[n-1] = keys[0], keys[1]
			bv[100] = rng.Uint64()%100 + 1
			bv[n-1] = rng.Uint64()%100 + 1
			call := clock.Add(1)
			if round%2 == 0 {
				b.InsertBatch(bk, bv, res, ok)
			} else {
				b.DeleteBatch(bk, res, ok)
			}
			ret := clock.Add(1)
			kind := linearizability.OpInsert
			if round%2 == 1 {
				kind = linearizability.OpDelete
			}
			for _, i := range []int{100, n - 1} {
				record(linearizability.Op{
					Kind: kind, Key: bk[i], Arg: bv[i],
					OutVal: res[i], OutOK: ok[i],
					Call: call, Return: ret, ThreadID: 2,
				})
			}
		}
	}()
	wg.Wait()
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("mux point/batch history not linearizable: %v", err)
	}
}

// TestAllocsMux: the ISSUE 7 alloc gate. A warmed-up per-key operation
// through the mux — queueing on the shared conn, frame encode, server
// round trip, response scatter, owner wakeup — allocates nothing
// process-wide.
func TestAllocsMux(t *testing.T) {
	_, m := startMux(t, "occ", 1<<16, 2, client.MuxConfig{})
	h := m.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	// Warm every pool: frames, staging slices, scratch growth.
	for i := 0; i < 2000; i++ {
		h.Find(uint64(1 + i%10_000))
	}
	if avg := testing.AllocsPerRun(500, func() { h.Find(7777) }); avg != 0 {
		t.Errorf("mux Find allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { h.Insert(7777, 1) }); avg != 0 {
		t.Errorf("mux present-key Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		h.Delete(5000)
		h.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("mux steady-state Delete+Insert allocates %.2f/op, want 0", avg)
	}
}

// TestServerCoalescing exercises the server half with PLAIN per-handle
// connections (mux clients already arrive batched): many connections,
// one worker, phase-aligned same-opcode traffic — the worker's queue
// sweep must form multi-request descents (coalesce_batch_size > 1)
// while every per-stripe shadow map and the aggregate key sum stay
// exact.
func TestServerCoalescing(t *testing.T) {
	s, addr := startServerCfg(t, "occ", 1<<20, Config{Workers: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const (
		goroutines = 8
		perPhase   = 1200
		stripe     = uint64(1) << 10
	)
	var keySum atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := c.NewHandle() // dedicated connection per goroutine
			base := 1 + uint64(g)*stripe
			model := make(map[uint64]uint64)
			rng := xrand.New(uint64(g)*7919 + 3)
			// Phase-aligned opcodes maximize same-opcode queue overlap.
			for i := 0; i < perPhase; i++ {
				k := base + rng.Uint64n(stripe)
				v := rng.Uint64()
				prev, ins := h.Insert(k, v)
				mv, had := model[k]
				if ins == had || (had && prev != mv) {
					t.Errorf("g%d Insert(%d) = %d,%v; model %d,%v", g, k, prev, ins, mv, had)
					return
				}
				if !had {
					model[k] = v
				}
			}
			for i := 0; i < perPhase; i++ {
				k := base + rng.Uint64n(stripe)
				v, ok := h.Find(k)
				mv, had := model[k]
				if ok != had || (had && v != mv) {
					t.Errorf("g%d Find(%d) = %d,%v; model %d,%v", g, k, v, ok, mv, had)
					return
				}
			}
			for i := 0; i < perPhase; i++ {
				k := base + rng.Uint64n(stripe)
				prev, del := h.Delete(k)
				mv, had := model[k]
				if del != had || (had && prev != mv) {
					t.Errorf("g%d Delete(%d) = %d,%v; model %d,%v", g, k, prev, del, mv, had)
					return
				}
				delete(model, k)
			}
			var sum uint64
			for k := range model {
				sum += k
			}
			keySum.Add(sum)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := c.KeySum(), keySum.Load(); got != want {
		t.Errorf("KeySum = %d, want %d", got, want)
	}
	if co := s.MetricsDump().Histograms["coalesce_batch_size"]; co.Count == 0 {
		t.Fatal("server recorded no coalescing sweeps")
	}

	// Deterministic multi-request sweep: pipeline a slow MGET followed by
	// 31 point GETs in ONE socket write (32 = the per-conn request-slot
	// budget, so the reader never stalls). The worker is stuck in the
	// 2048-key descent while the reader queues every point request behind
	// it — the next sweep must pick up more than one.
	nc := rawDial(t, addr)
	mk := make([]uint64, 2048)
	for i := range mk {
		mk[i] = 1 + uint64(i)
	}
	var buf []byte
	for round := 0; round < 20; round++ {
		buf = wire.AppendBatch(buf[:0], 1, wire.OpMGet, mk, nil)
		for id := uint64(2); id <= 32; id++ {
			buf = wire.AppendPoint(buf, id, wire.OpGet, 1+id, 0)
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if _, op, _ := readResp(t, nc); op != wire.RespBatch && op != wire.RespPoint {
				t.Fatalf("burst response op %#x", op)
			}
		}
	}
	co := s.MetricsDump().Histograms["coalesce_batch_size"]
	if co.MaxNs < 2 {
		t.Errorf("coalesce_batch_size max = %d, want >= 2 (pipelined point burst never coalesced)", co.MaxNs)
	}
}

// TestServerCoalescingDisabled: Coalesce=1 must take the per-request
// path exclusively — the histogram never records.
func TestServerCoalescingDisabled(t *testing.T) {
	s, addr := startServerCfg(t, "occ", 1<<16, Config{Workers: 2, Coalesce: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := c.NewHandle()
	for k := uint64(1); k <= 500; k++ {
		h.Insert(k, k)
		if v, ok := h.Find(k); !ok || v != k {
			t.Fatalf("Find(%d) = %d,%v", k, v, ok)
		}
	}
	if co := s.MetricsDump().Histograms["coalesce_batch_size"]; co.Count != 0 {
		t.Errorf("coalesce_batch_size recorded %d sweeps with coalescing disabled", co.Count)
	}
}

// TestShedOverload: with ShedOnFull set and a tiny queue, a pipelined
// burst of slow batch requests must be answered — some served, some
// with overload errors — instead of blocking the reader; the split
// counter attributes exactly the error responses, the stream stays
// aligned, and dead-connection shed stays at zero.
func TestShedOverload(t *testing.T) {
	s, addr := startServerCfg(t, "occ", 1<<17, Config{
		Workers: 1, QueueDepth: 1, ShedOnFull: true, Coalesce: 1,
	})
	// Prefill through single un-pipelined batch frames (a pipelined
	// prefill would itself be shed).
	{
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		b := c.NewHandle().(dict.Batcher)
		keys := make([]uint64, wire.MaxBatch)
		vals := make([]uint64, wire.MaxBatch)
		oks := make([]bool, wire.MaxBatch)
		for chunk := 0; chunk < 10; chunk++ {
			for i := range keys {
				keys[i] = uint64(chunk*wire.MaxBatch + i + 1)
				vals[i] = keys[i]
			}
			b.InsertBatch(keys, vals, vals, oks)
		}
		c.Close()
	}

	// One raw connection pipelines 16 MGET(2048) frames in a burst: the
	// reader decodes them orders of magnitude faster than the single
	// worker can run 2048-key descents, so with QueueDepth 1 most of the
	// burst must shed.
	nc := rawDial(t, addr)
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	var b []byte
	const burst = 16
	for id := uint64(1); id <= burst; id++ {
		b = wire.AppendBatch(b, id, wire.OpMGet, keys, nil)
	}
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	served, shed := 0, 0
	seen := make(map[uint64]bool)
	for i := 0; i < burst; i++ {
		id, op, _ := readResp(t, nc)
		if id < 1 || id > burst || seen[id] {
			t.Fatalf("response id %d unexpected (op %#x)", id, op)
		}
		seen[id] = true
		switch op {
		case wire.RespBatch:
			served++
		case wire.RespError:
			shed++
		default:
			t.Fatalf("response id %d: op %#x", id, op)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("burst split served=%d shed=%d, want both nonzero", served, shed)
	}
	d := s.MetricsDump()
	if got := d.Counters["shed_overload_total"]; got != uint64(shed) {
		t.Errorf("shed_overload_total = %d, want %d (the error responses)", got, shed)
	}
	if got := d.Counters["shed_conn_dead_total"]; got != 0 {
		t.Errorf("shed_conn_dead_total = %d, want 0 (no connection died)", got)
	}

	// The stream stays aligned: a follow-up op on the same connection
	// completes normally.
	b = wire.AppendPoint(b[:0], 99, wire.OpGet, 5, 0)
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	if id, op, _ := readResp(t, nc); id != 99 || op != wire.RespPoint {
		t.Fatalf("post-shed GET got id=%d op=%#x", id, op)
	}
}
