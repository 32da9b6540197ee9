package client

// Client-side observability: every handle records the round-trip time
// of each operation into a per-op striped histogram shared by the whole
// Client (handles stripe by a per-handle hint, so concurrent workers
// never contend), and ServerMetrics drains the server's METRICS stream
// into plain maps. Recording is two time.Now calls and two atomic adds
// per op — the warmed remote point path stays 0 allocs/op.

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Client-side RTT histogram slots.
const (
	copGet = iota
	copPut
	copDelete
	copMGet
	copMPut
	copMDelete
	copScan
	copSnapScan
	numClientOps
)

var copNames = [numClientOps]string{
	"rtt_get_ns", "rtt_put_ns", "rtt_delete_ns",
	"rtt_mget_ns", "rtt_mput_ns", "rtt_mdelete_ns",
	"rtt_scan_ns", "rtt_snapscan_ns",
}

// copFor maps a request opcode to its RTT slot (-1 for control ops,
// which are not per-op instrumented).
func copFor(op byte) int {
	switch op {
	case wire.OpGet:
		return copGet
	case wire.OpPut:
		return copPut
	case wire.OpDelete:
		return copDelete
	case wire.OpMGet:
		return copMGet
	case wire.OpMPut:
		return copMPut
	case wire.OpMDelete:
		return copMDelete
	case wire.OpScan:
		return copScan
	case wire.OpSnapScan:
		return copSnapScan
	}
	return -1
}

// rttHists is the Client's shared RTT instrument set.
type rttHists struct {
	h [numClientOps]metrics.Histogram
}

// observe records one completed operation's round trip.
func (h *handle) observe(slot int, t0 time.Time) {
	if slot < 0 {
		return
	}
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	h.c.rtt.h[slot].Record(h.hint, uint64(d))
}

// RTT snapshots the client-side round-trip histograms, keyed by
// instrument name ("rtt_get_ns", ...). Ops that never ran are omitted.
func (c *Client) RTT() map[string]*metrics.Snapshot {
	out := make(map[string]*metrics.Snapshot, numClientOps)
	for i := range c.rtt.h {
		s := new(metrics.Snapshot)
		c.rtt.h[i].Snapshot(s)
		if s.Count != 0 {
			out[copNames[i]] = s
		}
	}
	return out
}

// ServerMetrics is a decoded METRICS response: the server's full
// instrument set at one point in time.
type ServerMetrics struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]*metrics.Snapshot
}

// ServerMetrics fetches the server's observability snapshot over the
// control connection.
func (c *Client) ServerMetrics() (*ServerMetrics, error) {
	// A retried stream rewrites every entry of a partial earlier attempt.
	sm := &ServerMetrics{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]*metrics.Snapshot),
	}
	var it wire.MetricsItem
	err := c.control(&op{req: wire.OpMetrics, encode: wire.AppendMetricsReq,
		decode: func(p []byte) (bool, error) {
			last, err := wire.DecodeMetricsItem(p, &it)
			if err != nil {
				return false, err
			}
			name := string(it.Name)
			switch it.Kind {
			case wire.MetricCounter:
				sm.Counters[name] = it.Value
			case wire.MetricGauge:
				sm.Gauges[name] = it.Gauge()
			case wire.MetricHistogram:
				s := new(metrics.Snapshot)
				*s = it.Hist
				sm.Hists[name] = s
			}
			return last, nil
		}})
	if err != nil {
		return nil, err
	}
	return sm, nil
}
