package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func ramp(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	return s
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		ok    bool
		q     float64
		value uint32
	}{
		{n: 9, ok: false},
		{n: 20, ok: true, q: 0.50, value: 10},
		{n: 999, ok: true, q: 0.90, value: 900},
		{n: 1000, ok: true, q: 0.99, value: 990},
		{n: 10000, ok: true, q: 0.999, value: 9990},
		{n: 100000, ok: true, q: 0.9999, value: 99990},
	} {
		got, ok := highestTail(ramp(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok = %v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Q != tc.q || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want q=%g value=%d samples=%d", tc.n, got, tc.q, tc.value, tc.n)
		}
		if beyond := tc.n - int(got.Value); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, got.Q*100)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := ramp(100)
	for q, want := range map[float64]uint32{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%g) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestErrorRate(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed uint64
		want              float64
	}{{0, 0, 0}, {1000, 5, 0.005}, {4, 4, 1}, {3, 0, 0}} {
		if got := errorRate(tc.attempted, tc.failed); got != tc.want {
			t.Errorf("errorRate(%d, %d) = %g, want %g", tc.attempted, tc.failed, got, tc.want)
		}
	}
}

func TestInterquartileMean(t *testing.T) {
	// The tail (1000, 5000) and the bottom (1, 2) fall outside the middle half.
	if got := interquartileMean([]uint32{1, 2, 10, 20, 30, 40, 1000, 5000}); got != 25 {
		t.Errorf("interquartileMean = %g", got)
	}
	if got := interquartileMean(ramp(8)); got != 4.5 {
		t.Errorf("interquartileMean(1..8) = %g, want 4.5", got)
	}
	if interquartileMean(nil) != 0 {
		t.Error("interquartileMean of no samples should be 0")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {2, 4}, {6, 8}, {12, 13}}
	if got := covered(iv); got != 4+5+1 {
		t.Errorf("covered = %d, want 10", got)
	}
}

func TestLayerSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, name: "client.call", start: 0, end: 100},
		{id: 2, parent: 1, name: "server.dict", start: 20, end: 30},
		{id: 3, parent: 1, name: "server.repl_ack", start: 30, end: 100},
		{id: 4, parent: 1, name: "server.repl_apply", start: 50, end: 60},
		{id: 5, parent: 1, name: "wire.encode", start: 100, end: 110},
	}
	ls := layerStats(spans)
	if c := ls["client.call"]; c.DurNs != 100 || c.SelfNs != 20 {
		t.Errorf("client.call = %+v, want duration 100, self 20", c)
	}
	if a := ls["server.repl_ack"]; a.SelfNs != 70 {
		t.Errorf("server.repl_ack self = %g, want 70 (its sibling apply is not its child)", a.SelfNs)
	}
}

// fakeSystem serves a scripted caller for the closed-loop tests.
type fakeSystem struct {
	do func(i int, op opKind, key uint64) (int, error)
}

type fakeCaller struct {
	s *fakeSystem
	i int
}

func (c *fakeCaller) do(op opKind, key uint64) (int, error) { return c.s.do(c.i, op, key) }

func (s *fakeSystem) newCaller(i int) caller                     { return &fakeCaller{s, i} }
func (s *fakeSystem) spanName(opKind) string                     { return "fake" }
func (s *fakeSystem) counters() map[string]float64               { return nil }
func (s *fakeSystem) keys() int                                  { return 1 }
func (s *fakeSystem) verify(uint64) ([]gate, map[string]float64) { return nil, nil }
func (s *fakeSystem) close()                                     {}

func testPlan() plan {
	return plan{callers: 2, windows: 4, winLen: int64(50 * time.Millisecond), stall: int64(time.Second)}
}

// TestFailureAccounting checks that returned errors and recovered panics
// both count as failed operations against the attempted ones.
func TestFailureAccounting(t *testing.T) {
	var calls, panicked atomic.Int64
	sys := &fakeSystem{do: func(_ int, op opKind, key uint64) (int, error) {
		n := calls.Add(1)
		switch {
		case n%100 == 0:
			return 0, errors.New("scripted failure")
		case n%1001 == 0 && panicked.Add(1) <= 3:
			panic("scripted panic")
		}
		return 1, nil
	}}
	ph := runPhase(sys, &recorder{}, testPlan(), 1, &workload{keyRange: 1000, mix: mix{findPct: 50, updatePct: 50}})
	if ph.stalled {
		t.Fatal("phase stalled")
	}
	wantFailed := uint64(calls.Load()/100) + uint64(min(panicked.Load(), 3))
	if ph.failed != wantFailed {
		t.Errorf("failed = %d, want %d (errors plus panics)", ph.failed, wantFailed)
	}
	if ph.attempted != uint64(calls.Load()) {
		t.Errorf("attempted = %d, want %d", ph.attempted, calls.Load())
	}
	if len(ph.panics) != int(min(panicked.Load(), 3)) {
		t.Errorf("recorded %d panics, want %d", len(ph.panics), min(panicked.Load(), 3))
	}
	got := errorRate(ph.attempted, ph.failed)
	if want := float64(wantFailed) / float64(calls.Load()); got != want {
		t.Errorf("error rate = %g, want %g", got, want)
	}
}

// TestStallWatchdog checks a run whose operations stop completing ends
// as failed instead of hanging, with the stuck operations counted.
func TestStallWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	sys := &fakeSystem{do: func(int, opKind, uint64) (int, error) {
		if calls.Add(1) > 5000 {
			<-release
		}
		return 0, nil
	}}
	p := testPlan()
	p.windows, p.stall = 1000, int64(300*time.Millisecond)
	done := make(chan phase, 1)
	go func() { done <- runPhase(sys, &recorder{}, p, 1, &workload{keyRange: 1000, mix: mix{findPct: 100}}) }()
	select {
	case ph := <-done:
		if !ph.stalled || ph.failed != uint64(p.callers) {
			t.Errorf("stalled=%v failed=%d, want a stalled phase with %d failed", ph.stalled, ph.failed, p.callers)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not end the stalled phase")
	}
}

// smokeOptions shrinks a run so every workload finishes in about a second.
func smokeOptions(keyRange uint64, traced bool) options {
	o := defaultOptions()
	o.seed, o.seconds, o.traced, o.setups = 7, 1, traced, 1
	o.winSec, o.keyRange = 0.25, keyRange
	return o
}

var smokeRanges = map[string]uint64{
	"skew-update": 20_000, "uniform-scan": 40_000, "durable-update": 20_000, "remote-repl": 4_000,
}

// TestSmoke runs every workload, untraced and traced, at a small size and
// checks it passes its gates and reports every metric of its mode.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		kr, ok := smokeRanges[w.name]
		if !ok {
			t.Fatalf("no smoke size for workload %s", w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(w, smokeOptions(kr, traced))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			res.Correct = res.passed()
			if !res.Correct {
				t.Errorf("%s traced=%v failed its gates: %+v (failed ops %d, panics %v)", w.name, traced, res.Gates, res.Failed, res.Panics)
			}
			sum := res.summary()
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(sum.Metrics), len(defs))
			}
			for _, d := range defs {
				m := sum.Metrics[d.name]
				if m.Unit != d.unit {
					t.Errorf("%s: metric %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced && sum.Metrics["trace.spans"].Value == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

// TestRemoteLayers checks the traced replicated run attributes time to
// every remote layer the benchmark names.
func TestRemoteLayers(t *testing.T) {
	res, err := run(findWorkload("remote-repl"), smokeOptions(smokeRanges["remote-repl"], true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"client.call_ns", "wire.encode_ns", "wire.decode_ns", "server.dict_ns",
		"server.transport_queue_ns", "server.repl_ack_ns", "server.repl_apply_ns"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}

// TestKeySumNegativeControl perturbs the expected key sum by one: the
// gate must catch it and fail the run.
func TestKeySumNegativeControl(t *testing.T) {
	o := smokeOptions(smokeRanges["skew-update"], false)
	o.keySkew = 1
	res, err := run(findWorkload("skew-update"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.passed() {
		t.Fatal("run with a perturbed expected key sum passed")
	}
	for _, g := range res.Gates {
		if g.Name == "keysum" && g.OK {
			t.Errorf("keysum gate passed despite the perturbation: %s", g.Detail)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	if !strings.Contains(strings.Join(cfg.Command, " "), "perfbench/run.sh") {
		t.Errorf("command %v does not run perfbench/run.sh", cfg.Command)
	}
}
