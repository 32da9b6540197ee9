package client

// Dynamic request coalescing, client half: a Mux multiplexes any number
// of concurrent dict.Handle callers onto one (or a few) shared TCP
// connections, transparently merging their per-key Get/Put/Delete calls
// into MGET/MPUT/MDELETE frames.
//
// A Mux connection is the same engine as a plain handle's (conn.go),
// shared by many handles. Point ops queued while the connection's
// credit window is full are combined into one frame per opcode class
// (up to 512 waiters), so batch size adapts to the arrival rate: under
// light load an op ships alone at once; under load the next frame
// carries everything that piled up. Explicit dict.Batcher calls and
// scans ride the same connection as their own frames, under the same
// window, and follow the same retry and ambiguity rules (retry.go).
//
// Allocation discipline: ops live in their handles and frames in the
// connection's slot table, so a warmed-up per-key operation through the
// mux allocates nothing on either endpoint (enforced by
// internal/server's TestAllocsMux).

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// MuxConfig tunes a Mux. The zero value is ready: one shared
// connection, an 8-frame credit window, default retries.
type MuxConfig struct {
	// Conns is the number of shared connections (default 1). Handles are
	// assigned round-robin; more connections trade coalescing density
	// for wire parallelism.
	Conns int
	// Window is the per-connection credit: how many frames may be in
	// flight before callers queue (default 8, capped at 32, the server's
	// per-connection request slots). The window is what turns
	// backpressure into batching — while it is full, arriving ops pile
	// into the next frame.
	Window int
	// Net is the dial/retry policy (shared with the control client).
	Net Config
}

// muxMaxWindow caps MuxConfig.Window.
const muxMaxWindow = 32

// Mux is a shared-connection coalescing client. It implements dict.Dict
// (plus dict.RQStatser and dict.ElimStatser) exactly like Client, so
// bench.NewDict can hand it to every workload unchanged; control-plane
// operations (STATS, OPEN, KeySum) ride the Client under the hood.
type Mux struct {
	c     *Client
	conns []*conn
	next  atomic.Uint64 // handle round-robin counter
}

// DialMux connects a Mux to an abtree server: a Client for control,
// then cfg.Conns shared data connections.
func DialMux(addr string, cfg MuxConfig) (*Mux, error) {
	c, err := DialConfig(addr, cfg.Net)
	if err != nil {
		return nil, err
	}
	window := cfg.Window
	if window <= 0 {
		window = 8
	}
	window = min(window, muxMaxWindow)
	m := &Mux{c: c}
	for i := 0; i < max(cfg.Conns, 1); i++ {
		e, err := c.newConn(window, true, i)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: mux dial %s: %w", addr, err)
		}
		m.conns = append(m.conns, e)
	}
	return m, nil
}

// Close tears down the shared connections and the control client. It
// must not race in-flight operations (finish or abandon your workers
// first — the dict contract's quiescence rule, extended to teardown).
func (m *Mux) Close() error { return m.c.Close() }

// Name returns the hosted structure's registry name.
func (m *Mux) Name() string { return m.c.Name() }

// Stats fetches the server's STATS snapshot over the control client.
func (m *Mux) Stats() (wire.Stats, error) { return m.c.Stats() }

// Open asks the server to host a fresh structure (see Client.Open).
func (m *Mux) Open(name string, keyRange uint64) error { return m.c.Open(name, keyRange) }

// KeySum returns the hosted structure's key sum (quiescent only).
func (m *Mux) KeySum() uint64 { return m.c.KeySum() }

// RQStats reports the hosted structure's range-query counters.
func (m *Mux) RQStats() (scans, versions uint64) { return m.c.RQStats() }

// ElimStats reports the hosted structure's elimination counters.
func (m *Mux) ElimStats() (inserts, deletes, upserts uint64) { return m.c.ElimStats() }

// RTT snapshots the client-side round-trip histograms.
func (m *Mux) RTT() map[string]*metrics.Snapshot { return m.c.RTT() }

// ServerMetrics fetches the server's observability snapshot.
func (m *Mux) ServerMetrics() (*ServerMetrics, error) { return m.c.ServerMetrics() }

// Tracer returns the mux's local span collector (nil unless
// Net.TraceEvery > 0).
func (m *Mux) Tracer() *trace.Collector { return m.c.Tracer() }

// LocalTraces dumps the client-side trace collector.
func (m *Mux) LocalTraces(max int) []trace.Trace { return m.c.LocalTraces(max) }

// ServerTraces drains the server's trace collector over the control
// connection.
func (m *Mux) ServerTraces(max int) ([]ServerTrace, error) { return m.c.ServerTraces(max) }

// FaultStats snapshots the fault-path counters: redials, retries,
// ambiguous completions, BUSY rejections.
func (m *Mux) FaultStats() FaultStats { return m.c.FaultStats() }

// CoalesceStats snapshots the client-side coalesce_batch_size
// histogram: how many waiters each point frame carried.
func (m *Mux) CoalesceStats() *metrics.Snapshot {
	s := new(metrics.Snapshot)
	m.c.coalesce.Snapshot(s)
	return s
}

// Inflight reports the mux_inflight gauge: operations submitted and not
// yet completed across every handle.
func (m *Mux) Inflight() int64 { return m.c.inflight.Load() }

// NewHandle returns a per-goroutine accessor on one of the shared
// connections (round-robin). Handles are cheap — no dial — so any
// number of worker goroutines can share a connection. The dynamic type
// exposes the hosted structure's scan capabilities, like
// Client.NewHandle.
func (m *Mux) NewHandle() dict.Handle {
	i := m.next.Add(1)
	return m.c.wrap(m.c.newHandle(m.conns[int(i-1)%len(m.conns)]))
}
