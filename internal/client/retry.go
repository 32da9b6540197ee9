package client

// Fault tolerance: the retry and ambiguity rules, for every handle.
//
// When a connection fails (dial refused, read/write error, torn frame,
// protocol mismatch, BUSY admission rejection), the conn completes
// every op on it with the cause and a note of whether the op's bytes
// may have reached the server; the next writer redials. The owner of
// each op then decides, in handle.do:
//
//   - Bytes that never left the client are replayed: a failure before
//     any frame byte reached the kernel (checked against bufio's
//     unflushed count), or an op still queued behind the failure.
//   - Idempotent operations — GET, MGET, scans, STATS, METRICS, OPEN,
//     PROMOTE — are replayed across reconnects. Re-executing them
//     cannot change the structure (re-opening the same <name, keyRange>
//     converges on the same fresh instance; promotion is a CAS).
//   - BUSY replays everything: an admission BUSY arrives before the
//     server reads anything, and a rate-limit BUSY rejects its frame
//     unexecuted.
//   - Any other mutation (PUT/DELETE and their batch forms) that may
//     have reached the server fails with ErrAmbiguous: a blind replay
//     could apply it twice, so the caller (or the linearizability
//     recorder, via Maybe ops) owns the uncertainty.
//
// Replays back off with capped exponential backoff plus jitter. The
// dict.Handle methods panic when retries are exhausted or an ambiguous
// mutation surfaces (the interfaces have no error results); the Try*
// methods expose the same operations with errors for chaos drills.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/xrand"
)

// ErrAmbiguous reports a mutation whose outcome is unknown: the request
// frame may have reached the server, but the connection died before a
// response arrived. The mutation may or may not have been applied;
// retrying it blindly could apply it twice.
var ErrAmbiguous = errors.New("mutation outcome ambiguous: request may have reached the server")

// errClientClosed terminates retry loops immediately (Close raced an op).
var errClientClosed = errors.New("client is closed")

// errBusy marks a server BUSY rejection; always safe to retry (the
// rejecting server executed nothing).
var errBusy = errors.New("server busy: request rejected unexecuted")

// ErrReadOnly matches (via errors.Is) the application error a follower
// replica returns for client mutations. The cluster router treats it as
// the definitive "this replica is not the primary" signal: the mutation
// was not executed, and the router re-resolves roles and retries against
// the real primary.
var ErrReadOnly = errors.New("read-only replica")

// Config tunes a Client's dial and retry behaviour. The zero value gets
// the documented defaults.
type Config struct {
	// DialTimeout bounds every TCP dial (initial and redials) so a
	// blackholed address fails fast instead of hanging a worker.
	// Default 5s.
	DialTimeout time.Duration
	// RetryAttempts is how many times one operation is retried after a
	// transport failure before giving up (8 by default). Negative
	// disables retries entirely — every transport error surfaces.
	RetryAttempts int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// up to RetryBackoffMax, with ±50% jitter. Defaults 2ms / 250ms.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// TraceEvery head-samples 1 in TraceEvery operations per handle for
	// request-scoped tracing (1 = every op, 0 = tracing off). Sampled
	// ops announce a fresh 64-bit trace id with an OpTraceCtx frame —
	// only when the server advertised CapTrace — and record a client
	// span into the Client's trace collector.
	TraceEvery int
}

func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryAttempts == 0 {
		cfg.RetryAttempts = 8
	}
	if cfg.RetryAttempts < 0 {
		cfg.RetryAttempts = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 250 * time.Millisecond
	}
	if cfg.TraceEvery < 0 {
		cfg.TraceEvery = 0
	}
	return cfg
}

// FaultStats counts the fault-path events a Client has taken.
type FaultStats struct {
	Redials   uint64 // successful reconnects
	Retries   uint64 // operations replayed after a transport failure
	Ambiguous uint64 // mutations failed with ErrAmbiguous
	Busy      uint64 // server BUSY rejections absorbed
}

// faultCounters is the atomic backing store (fast path never touches it).
type faultCounters struct {
	redials   atomic.Uint64
	retries   atomic.Uint64
	ambiguous atomic.Uint64
	busy      atomic.Uint64
}

// FaultStats snapshots the client's fault-path counters.
func (c *Client) FaultStats() FaultStats {
	return FaultStats{
		Redials:   c.faults.redials.Load(),
		Retries:   c.faults.retries.Load(),
		Ambiguous: c.faults.ambiguous.Load(),
		Busy:      c.faults.busy.Load(),
	}
}

// dial opens one TCP connection under the configured timeout and
// registers it for Close.
func (c *Client) dial() (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if !c.open {
		c.mu.Unlock()
		nc.Close()
		return nil, errClientClosed
	}
	c.conns[nc] = struct{}{}
	c.mu.Unlock()
	return &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}, nil
}

// forget unregisters and closes a connection that failed.
func (c *Client) forget(nc net.Conn) {
	c.mu.Lock()
	delete(c.conns, nc)
	c.mu.Unlock()
	nc.Close()
}

// backoff sleeps for the attempt'th capped exponential backoff with
// ±50% jitter, counting the retry.
func (h *handle) backoff(attempt int) {
	cfg := h.c.cfg
	d := cfg.RetryBackoff << uint(attempt)
	if d > cfg.RetryBackoffMax || d <= 0 {
		d = cfg.RetryBackoffMax
	}
	// Jitter in [d/2, 3d/2) so synchronized failures don't re-dial in
	// lockstep.
	d = d/2 + time.Duration(h.rng.Uint64n(uint64(d)))
	time.Sleep(d)
	h.c.faults.retries.Add(1)
}

// isMutation reports whether a request changes the structure; every
// other request (GET, MGET, scans, STATS, METRICS, OPEN, PROMOTE, trace
// dumps) is safe to re-execute.
func isMutation(req byte) bool {
	switch req {
	case wire.OpPut, wire.OpDelete, wire.OpMPut, wire.OpMDelete:
		return true
	}
	return false
}

// isApp reports an application-level failure (respError).
func isApp(err error) bool {
	_, ok := err.(respError)
	return ok
}

// do runs one logical operation — a point op, a scan, a control
// request, or the chunks of a batch — on the handle's conn under the
// retry policy, the one place the rules above are decided. Ops that
// completed stay done; failed ones are classified:
//
//   - an application error (RespError) or a closed client is final;
//   - a mutation whose bytes may have reached the server, for any cause
//     but BUSY, fails the whole operation with ErrAmbiguous;
//   - anything else (reads, bytes that never left the client, BUSY) is
//     replayed after backoff, up to Config.RetryAttempts times.
func (h *handle) do(ops []*op) error {
	for _, o := range ops {
		o.done = false
	}
	for attempt := 0; ; attempt++ {
		h.e.exec(&h.w, ops)
		var retry error
		for _, o := range ops {
			switch err := o.err; {
			case err == nil:
				continue
			case isApp(err), err == errClientClosed:
				return err
			case isMutation(o.req) && o.sent && err != errBusy:
				h.c.faults.ambiguous.Add(1)
				return fmt.Errorf("%w (op %#x: %v)", ErrAmbiguous, o.req, err)
			}
			retry = o.err
		}
		if retry == nil {
			return nil
		}
		if attempt >= h.c.cfg.RetryAttempts {
			return retry
		}
		for _, o := range ops {
			if o.err != nil {
				o.done = false
			}
		}
		h.backoff(attempt)
	}
}

// --- error-aware operation surface -----------------------------------
//
// TryHandle is the non-panicking face of a handle: the same operations
// as dict.Handle, with transport errors (including ErrAmbiguous)
// surfaced instead of panicking. Chaos drills and the linearizability
// chaos recorder type-assert handles to this.
type TryHandle interface {
	TryFind(key uint64) (uint64, bool, error)
	TryInsert(key, val uint64) (uint64, bool, error)
	TryDelete(key uint64) (uint64, bool, error)
}

// TryFind is Find with an error result instead of a panic.
func (h *handle) TryFind(key uint64) (uint64, bool, error) { return h.point(wire.OpGet, key, 0) }

// TryInsert is Insert with an error result; ErrAmbiguous means the
// insert may or may not have been applied.
func (h *handle) TryInsert(key, val uint64) (uint64, bool, error) {
	return h.point(wire.OpPut, key, val)
}

// TryDelete is Delete with an error result; ErrAmbiguous means the
// delete may or may not have been applied.
func (h *handle) TryDelete(key uint64) (uint64, bool, error) {
	return h.point(wire.OpDelete, key, 0)
}

// newRetryRNG builds a handle's jitter stream.
func newRetryRNG(hint int) *xrand.Rand {
	return xrand.New(0x5DEECE66D + uint64(hint)*0x9E3779B97F4A7C15)
}
