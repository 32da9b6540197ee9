// Package client is the Go client for internal/server: an
// implementation of dict.Dict + dict.Batcher over the internal/wire
// protocol, so the entire in-process workload harness (bench, ycsb, the
// linearizability recorder) runs unmodified against a remote server.
//
// Shape: every handle runs on a conn, the one connection engine in
// conn.go. A Client handle gets a private conn dialed by NewHandle —
// handles are thread-bound by the dict contract, so the caller writes
// and reads its own connection with no goroutine hand-off. A Mux shares
// a few conns among any number of handles and combines their concurrent
// point ops into batch frames (mux.go). Either way, batched operations
// larger than wire.MaxBatch are split into chunk frames pipelined
// through the conn's in-flight window, and echoed request ids land each
// response at its input offset.
//
// Scan responses are buffered per handle before the callback runs (the
// stream is fully drained first), so dict.Ranger's "fn may run point
// operations on the same handle" contract holds over the wire too.
//
// Allocation discipline: request frames, response payloads and scan
// pair buffers are per-conn or per-handle scratch, reused across calls
// — a warmed-up remote point operation allocates nothing on either
// endpoint (see internal/server's TestAllocsRemotePointOps and
// TestAllocsMux).
//
// Error model: Dial, Open, Stats and Close return errors; the
// dict.Dict/Handle methods cannot (the interfaces have no error
// results). A transport failure first goes through the retry policy in
// retry.go — the conn redials, idempotent operations replay
// transparently, and mutations that may have reached the server fail
// with ErrAmbiguous instead of replaying. Only when retries are
// exhausted (or a mutation turns ambiguous) does a dict.Handle method
// panic with a descriptive message; the Try* methods (TryHandle)
// surface the same errors for chaos drills.
package client

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Client is a connection pool to one abtree server. It implements
// dict.Dict (plus dict.RQStatser and dict.ElimStatser, served by the
// remote STATS operation), so bench.NewDict can hand it to every
// workload unchanged.
type Client struct {
	addr string
	cfg  Config // dial/retry policy (see retry.go), defaults applied

	// ctrlMu serializes control RPCs (STATS/OPEN/PROMOTE/METRICS/trace
	// dumps) on the shared ctrl handle. It is never held while taking
	// mu in the other order: a redial under a control RPC registers its
	// connection under mu.
	ctrlMu sync.Mutex
	ctrl   *handle // lazily dialed control handle

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live dialed connections, for Close
	caps   wire.Stats            // hosted structure info from the last STATS/OPEN
	open   bool
	nhands int // handles created, for metrics stripes and jitter seeds

	rtt      rttHists          // client-side per-op round-trip histograms
	faults   faultCounters     // redials/retries/ambiguous/busy (see retry.go)
	inflight metrics.Gauge     // Mux ops submitted, not yet completed
	coalesce metrics.Histogram // waiters per point frame on Mux conns

	// Tracing (Config.TraceEvery > 0): the local span collector, the
	// trace-id mint, and whether the server advertised CapTrace (refreshed
	// with the capabilities on every STATS/OPEN; trace frames are never
	// sent to a server that didn't).
	tracer   *trace.Collector
	traceSeq atomic.Uint64
	canTrace atomic.Bool
}

// Dial connects to an abtree server with the default Config and fetches
// the hosted structure's capabilities (which scan kinds its handles will
// offer).
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig is Dial with an explicit dial/retry policy.
func DialConfig(addr string, cfg Config) (*Client, error) {
	c := &Client{
		addr:  addr,
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		open:  true,
	}
	if c.cfg.TraceEvery > 0 {
		c.tracer = trace.New()
		// Seed the trace-id mint with the dial stamp so ids from distinct
		// clients (and client restarts) don't collide in a shared server
		// collector.
		c.traceSeq.Store(uint64(time.Now().UnixNano()) << 8)
	}
	if _, err := c.Stats(); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return c, nil
}

// Name returns the hosted structure's registry name (as of the last
// STATS or OPEN).
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps.Name
}

// control runs one control request on the shared ctrl handle, dialing
// it on first use.
func (c *Client) control(o *op) error {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	if c.ctrl == nil {
		e, err := c.newConn(1, false, 0)
		if err != nil {
			return err
		}
		c.ctrl = c.newHandle(e)
	}
	return c.ctrl.do([]*op{o})
}

// Stats fetches the server's STATS snapshot (key sum, rq/elimination
// counters, hosted name/keyRange/generation, scan capabilities) and
// refreshes the cached capabilities.
func (c *Client) Stats() (wire.Stats, error) {
	var st wire.Stats
	err := c.control(&op{req: wire.OpStats, encode: wire.AppendStats,
		decode: func(p []byte) (last bool, err error) {
			st, err = wire.DecodeStats(p)
			return true, err
		}})
	if err != nil {
		return wire.Stats{}, err
	}
	c.mu.Lock()
	c.caps = st
	c.mu.Unlock()
	c.canTrace.Store(st.CanTrace)
	return st, nil
}

// Open asks the server to host a fresh instance of the named registry
// structure sized for keyRange (the remote analogue of bench.NewDict),
// then refreshes the cached capabilities. Handles created before Open
// keep operating on the old generation's semantics until their next
// operation, which lands on the new structure.
func (c *Client) Open(name string, keyRange uint64) error {
	err := c.control(&op{req: wire.OpOpen, encode: func(b []byte, id uint64) []byte {
		return wire.AppendOpen(b, id, keyRange, name)
	}})
	if err != nil {
		return err
	}
	_, err = c.Stats()
	return err
}

// Promote asks the server to become (or confirm itself as) the primary
// of its partition, shipping its log to addrs under the given ack
// policy. Promotion is idempotent on the server (a CAS; re-promoting a
// primary is a no-op), so it retries like an idempotent op. The cluster
// router calls this during failover.
func (c *Client) Promote(ack int, addrs []string) error {
	joined := strings.Join(addrs, ",")
	return c.control(&op{req: wire.OpPromote, encode: func(b []byte, id uint64) []byte {
		return wire.AppendPromote(b, id, ack, joined)
	}})
}

// Close closes every connection the client dialed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open = false
	var first error
	for nc := range c.conns {
		if err := nc.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.conns = nil
	return first
}

// NewHandle dials a dedicated connection and returns a per-goroutine
// accessor whose dynamic type exposes exactly the scan capabilities the
// hosted structure reported (mirroring internal/shard's composed
// handles). It panics if the dial fails — dict.Dict.NewHandle has no
// error result.
func (c *Client) NewHandle() dict.Handle {
	h, err := c.NewTryHandle()
	if err != nil {
		panic(fmt.Sprintf("client: NewHandle: %v", err))
	}
	return h
}

// NewTryHandle is NewHandle with an error result instead of a panic —
// for callers (the cluster router) that must tolerate dialing a dead
// replica and fail over instead of crashing.
func (c *Client) NewTryHandle() (dict.Handle, error) {
	e, err := c.newConn(maxOutstanding, false, 0)
	if err != nil {
		return nil, err
	}
	return c.wrap(c.newHandle(e)), nil
}

// maxOutstanding is a private conn's in-flight window: how many chunk
// frames of one batched operation are pipelined. It must stay under the
// server's per-connection request-slot bound, so the server can always
// land every outstanding response.
const maxOutstanding = 8

// newHandle returns a handle on conn e.
func (c *Client) newHandle(e *conn) *handle {
	c.mu.Lock()
	c.nhands++
	hint := c.nhands
	c.mu.Unlock()
	h := &handle{c: c, e: e, hint: hint, rng: newRetryRNG(hint)}
	h.w.wake = make(chan struct{}, 1)
	h.one[0] = &h.pt
	return h
}

// wrap gives h the dynamic type that exposes the hosted structure's
// scan capabilities.
func (c *Client) wrap(h *handle) dict.Handle {
	c.mu.Lock()
	caps := c.caps
	c.mu.Unlock()
	if !caps.CanRange {
		return h
	}
	if !caps.CanSnap {
		return &rangeHandle{h}
	}
	return &snapHandle{rangeHandle{h}}
}

// KeySum returns the hosted structure's wrapping key sum via STATS
// (quiescent only, like every KeySum in this repository). It panics on
// a wire failure — dict.Dict.KeySum has no error result.
func (c *Client) KeySum() uint64 {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: KeySum: %v", err))
	}
	return st.KeySum
}

// RQStats reports the hosted structure's range-query counters
// (dict.RQStatser over the wire; zeros if the structure has none).
func (c *Client) RQStats() (scans, versions uint64) {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: RQStats: %v", err))
	}
	return st.Scans, st.Versions
}

// ElimStats reports the hosted structure's publishing-elimination
// counters (dict.ElimStatser over the wire; zeros if none).
func (c *Client) ElimStats() (inserts, deletes, upserts uint64) {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: ElimStats: %v", err))
	}
	return st.ElimInserts, st.ElimDeletes, st.ElimUpserts
}

// handle is a per-goroutine accessor on a conn (private or shared). Not
// safe for concurrent use, like every dict.Handle.
type handle struct {
	c    *Client
	e    *conn
	hint int         // metrics stripe
	w    waiter      // where this handle parks on its conn
	rng  *xrand.Rand // backoff jitter stream

	pt     op     // reused point/scan op
	one    [1]*op // {&pt}
	bops   []*op  // reused batch chunk ops
	traceN int    // ops since this handle's last head sample

	// lastSeq is the highest replication sequence number any response on
	// this handle has carried (0 against standalone servers). The cluster
	// router reads it through ReplSeq to maintain its read-your-writes
	// fence across replicas.
	lastSeq uint64
}

// Seqer is implemented by handles that track replication sequence
// numbers from seq-carrying responses (see ReplSeq).
type Seqer interface {
	ReplSeq() uint64
}

// ReplSeq returns the highest replication sequence number observed on
// this handle: after a successful mutation against a replicated
// primary, the op-log position the mutation committed at; after a read,
// the serving replica's apply/commit position. Zero against standalone
// servers.
func (h *handle) ReplSeq() uint64 { return h.lastSeq }

func (h *handle) noteSeq(seq uint64) {
	if seq > h.lastSeq {
		h.lastSeq = seq
	}
}

// run executes ops (n keys' worth) under the retry policy, keeping the
// Mux's inflight gauge.
func (h *handle) run(ops []*op, n int) error {
	if !h.e.shared {
		return h.do(ops)
	}
	h.c.inflight.Add(h.hint, int64(n))
	err := h.do(ops)
	h.c.inflight.Add(h.hint, -int64(n))
	return err
}

// respError is an application-level failure reported by the server over
// a healthy connection (RespError). It is never retried: the request was
// received, executed and rejected exactly once.
type respError string

func (e respError) Error() string { return "server error: " + string(e) }

// Is lets errors.Is(err, ErrReadOnly) recognize a follower's mutation
// rejection by its wire message (the server has no richer error channel
// than the RespError string).
func (e respError) Is(target error) bool {
	return target == ErrReadOnly && strings.HasPrefix(string(e), "follower:")
}

// point runs one point op. tid != 0 announces the trace id with an
// OpTraceCtx frame ahead of the request (the id survives retries, so a
// replayed attempt lands its server spans on the same trace).
func (h *handle) point(req byte, key, val uint64) (uint64, bool, error) {
	t0 := time.Now()
	tid := h.maybeTrace()
	o := &h.pt
	o.req, o.key, o.val = req, key, val
	o.trace, o.submitT = tid, t0.UnixNano()
	if err := h.run(h.one[:], 1); err != nil {
		return 0, false, err
	}
	h.noteSeq(o.seq)
	h.observe(copFor(req), t0)
	h.traceSpan(tid, req, t0)
	return o.resVal, o.resOk, nil
}

func (h *handle) mustPoint(req byte, key, val uint64) (uint64, bool) {
	v, ok, err := h.point(req, key, val)
	if err != nil {
		panic(fmt.Sprintf("client: point op %#x: %v", req, err))
	}
	return v, ok
}

// Find looks up key on the remote structure.
func (h *handle) Find(key uint64) (uint64, bool) { return h.mustPoint(wire.OpGet, key, 0) }

// Insert inserts <key, val> if absent (dict.Handle.Insert semantics).
func (h *handle) Insert(key, val uint64) (uint64, bool) { return h.mustPoint(wire.OpPut, key, val) }

// Delete removes key if present.
func (h *handle) Delete(key uint64) (uint64, bool) { return h.mustPoint(wire.OpDelete, key, 0) }

// batch drives one batched operation as wire.MaxBatch chunk frames,
// pipelined through the conn's window; each chunk decodes straight into
// its slice of the result arrays, whatever order the server's workers
// answer in. Mutating batches whose equal keys straddle a chunk
// boundary run one chunk at a time: the server serves concurrent frames
// on different workers, so only full serialization preserves
// dict.Batcher's equal-keys-apply-in-input-order contract across frames
// (within one frame the trees' native batch path preserves it).
func (h *handle) batch(req byte, keys, ivals []uint64, ovals []uint64, oks []bool) {
	if len(ovals) != len(keys) || len(oks) != len(keys) || (req == wire.OpMPut && len(ivals) != len(keys)) {
		panic("client: batch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	t0 := time.Now()
	tid := h.maybeTrace()
	n := (len(keys) + wire.MaxBatch - 1) / wire.MaxBatch
	for len(h.bops) < n {
		h.bops = append(h.bops, new(op))
	}
	ops := h.bops[:n]
	for i, o := range ops {
		off := i * wire.MaxBatch
		end := min(off+wire.MaxBatch, len(keys))
		o.req, o.keys, o.vals = req, keys[off:end], nil
		if req == wire.OpMPut {
			o.vals = ivals[off:end]
		}
		o.resVals, o.resOks = ovals[off:end], oks[off:end]
		o.trace, o.submitT = 0, t0.UnixNano()
	}
	// The trace rides the first chunk; its server spans represent the
	// batch (per-chunk spans would multiply one logical op).
	ops[0].trace = tid
	var err error
	if isMutation(req) && n > 1 && crossFrameDup(keys) {
		for i := 0; i < n && err == nil; i++ {
			err = h.run(ops[i:i+1], len(ops[i].keys))
		}
	} else {
		err = h.run(ops, len(keys))
	}
	if err != nil {
		panic(fmt.Sprintf("client: batch op %#x: %v", req, err))
	}
	for _, o := range ops {
		h.noteSeq(o.seq)
	}
	h.observe(copFor(req), t0) // whole-call RTT, all pipelined frames
	h.traceSpan(tid, req, t0)
}

// crossFrameDup reports whether any key occurs in two different
// wire.MaxBatch frames of the batch. Only called for mutating batches
// big enough to split (a rare path), so the map allocation is fine.
func crossFrameDup(keys []uint64) bool {
	firstFrame := make(map[uint64]int, len(keys))
	for i, k := range keys {
		frame := i / wire.MaxBatch
		if f, seen := firstFrame[k]; seen {
			if f != frame {
				return true
			}
		} else {
			firstFrame[k] = frame
		}
	}
	return false
}

// FindBatch looks up keys[i] for every i (dict.Batcher, remoted as one
// or more pipelined MGET frames).
func (h *handle) FindBatch(keys, vals []uint64, found []bool) {
	h.batch(wire.OpMGet, keys, nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher,
// remoted as pipelined MPUT frames).
func (h *handle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.batch(wire.OpMPut, keys, vals, prev, inserted)
}

// DeleteBatch removes keys[i] where present (dict.Batcher, remoted as
// pipelined MDELETE frames).
func (h *handle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.batch(wire.OpMDelete, keys, nil, prev, deleted)
}

// scan drives one remote scan: request, drain every chunk into the
// op's pair buffer, then replay the pairs through fn. Draining before
// the callback keeps the connection free of this handle's in-flight
// state while fn runs, so fn may issue point operations on this same
// handle (the dict.Ranger contract). Scans are idempotent: a failed
// attempt restarts with an empty pair buffer, so fn sees exactly one
// attempt's snapshot.
func (h *handle) scan(snapshot bool, lo, hi uint64, fn func(k, v uint64) bool) {
	req, slot := byte(wire.OpScan), copScan
	if snapshot {
		req, slot = wire.OpSnapScan, copSnapScan
	}
	t0 := time.Now()
	tid := h.maybeTrace()
	o := &h.pt
	o.req, o.key, o.val = req, lo, hi
	o.trace, o.submitT = tid, t0.UnixNano()
	if err := h.run(h.one[:], 1); err != nil {
		panic(fmt.Sprintf("client: scan: %v", err))
	}
	h.observe(slot, t0) // stream fully drained; excludes fn replay
	h.traceSpan(tid, req, t0)
	pairs := o.pairs // point ops run by fn reset o.pairs, not its contents
	for i, n := 0, len(pairs)/16; i < n; i++ {
		k, v := wire.PairAt(pairs, i)
		if !fn(k, v) {
			return
		}
	}
}

// rangeHandle adds remote weak scans (the hosted structure's handles
// implement dict.Ranger).
type rangeHandle struct{ *handle }

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, with whatever atomicity the hosted structure's Range has.
func (h *rangeHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	h.scan(false, lo, hi, fn)
}

// snapHandle adds remote linearizable scans.
type snapHandle struct{ rangeHandle }

// RangeSnapshot calls fn for each pair of one atomic snapshot of
// [lo, hi] — the snapshot the hosted structure's RangeSnapshot took,
// cross-shard linearizable when the server hosts a shared-clock
// partition.
func (h *snapHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.scan(true, lo, hi, fn)
}
