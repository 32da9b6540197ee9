// Command perfbench is this repository's benchmark: one closed-loop run of
// a named workload against the Elim-ABtree family, checked for
// correctness, printing every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they are
// the per-layer set, taken from spans the benchmark records around each
// layer call, plus the tracing overhead. See README.md for the workloads,
// the metrics and the layer-to-end-to-end table.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload skew-update --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// callers is how many closed-loop goroutines drive a workload, each
// waiting for its reply before the next operation — the box's nproc, and
// how both the Handle API and the router's handles are used.
const callers = 2

// stallTimeout ends a run as failed when no operation completes for
// this long.
const stallTimeout = 10 * time.Second

// workload is one named input shape. All load comes from this process.
type workload struct {
	name, why string
	keyRange  uint64
	zipfS     float64
	mix       mix
	scanLen   uint64
	sampleLog uint // latency sample every 1<<sampleLog point ops
	traceLog  uint // span every 1<<traceLog samples in traced windows
	setup     func(w *workload, seed uint64, rec *recorder) (system, uint64, error)
}

var workloads = []*workload{
	{
		name:     "skew-update",
		why:      "paper's headline shape: Zipf-1 inserts/deletes load the core leaf-lock, version and elimination path; rq, pmem and network idle",
		keyRange: 1_000_000, zipfS: 1, mix: mix{findPct: 0, updatePct: 100},
		sampleLog: 3, traceLog: 3,
		setup: func(w *workload, seed uint64, _ *recorder) (system, uint64, error) {
			return setupCore(w.keyRange, w.scanLen, seed)
		},
	},
	{
		name:     "uniform-scan",
		why:      "uniform keys over a heap larger than L3: cache-miss-bound descent plus 100-key RangeSnapshot scans; elimination never fires",
		keyRange: 4_000_000, zipfS: 0, mix: mix{findPct: 85, updatePct: 10}, scanLen: 100,
		sampleLog: 3, traceLog: 3,
		setup: func(w *workload, seed uint64, _ *recorder) (system, uint64, error) {
			return setupCore(w.keyRange, w.scanLen, seed)
		},
	},
	{
		name:     "durable-update",
		why:      "p-Elim-ABtree half finds, half updates, then crash and recovery: pabtree and the pmem flush/fence schedule, not core",
		keyRange: 1_000_000, zipfS: 0, mix: mix{findPct: 50, updatePct: 50},
		sampleLog: 3, traceLog: 3,
		setup: func(w *workload, seed uint64, _ *recorder) (system, uint64, error) {
			return setupPab(w.keyRange, seed)
		},
	},
	{
		name:     "remote-repl",
		why:      "YCSB-A through the cluster router to a sync-1 primary/follower pair on loopback: wire, server queue, commit wait, follower apply",
		keyRange: 100_000, zipfS: 0.99, mix: mix{findPct: 50, updatePct: 50},
		sampleLog: 0, traceLog: 2,
		setup: func(w *workload, seed uint64, rec *recorder) (system, uint64, error) {
			return setupRemote(w.keyRange, seed, rec)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the trees sees; every workload
// reports all of them with -trace 0.
var endToEnd = []metricDef{
	{"throughput_mops", "Mops/s"},
	{"update_iqm_us", "us"},
	{"update_p90_us", "us"},
	{"setup_s", "s"},
	{"mem_bytes_per_key", "B/key"},
}

// perLayer are reported with -trace 1 on every workload; a layer the
// workload leaves idle reads 0. The op-specific end-to-end latencies
// (finds, scans), recovery time and the error rate ride here because
// not every workload has them.
var perLayer = []metricDef{
	{"core.update_ns", "ns"},
	{"core.elim_frac", "ratio"},
	{"core.find_ns", "ns"},
	{"core.height", "levels"},
	{"rq.scan_ns", "ns"},
	{"rq.versions_per_scan", "count"},
	{"rq.pairs_per_scan", "count"},
	{"pabtree.update_ns", "ns"},
	{"pabtree.find_ns", "ns"},
	{"pabtree.recover_ns", "ns"},
	{"pmem.flushes_per_update", "count"},
	{"pmem.fences_per_update", "count"},
	{"client.call_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"server.dict_ns", "ns"},
	{"server.transport_queue_ns", "ns"},
	{"server.repl_ack_ns", "ns"},
	{"server.repl_apply_ns", "ns"},
	{"cluster.failovers", "count"},
	{"trace.untraced_mops", "Mops/s"},
	{"trace.traced_mops", "Mops/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"find_p50_us", "us"},
	{"find_p99_us", "us"},
	{"scan_p50_us", "us"},
	{"scan_p99_us", "us"},
	{"find_samples", "count"},
	{"update_samples", "count"},
	{"scan_samples", "count"},
	{"recover_s", "s"},
	{"error_rate", "ratio"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// options are one run's settings.
type options struct {
	seed     uint64
	seconds  int
	traced   bool
	setups   int     // set-up repetitions; setup_s is their median
	winSec   float64 // window length, s
	keySkew  uint64  // perturbs the expected key sum (negative control)
	keyRange uint64  // overrides the workload's key range when set
}

func defaultOptions() options {
	return options{setups: 3, winSec: 0.5}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func sumGate(name string, want, got uint64) gate {
	return gate{name, want == got, fmt.Sprintf("want %d, got %d", want, got)}
}

func intGate(name string, want, got int) gate {
	return gate{name, want == got, fmt.Sprintf("want %d, got %d", want, got)}
}

func errGate(name string, err error) gate {
	if err != nil {
		return gate{name, false, err.Error()}
	}
	return gate{name, true, "ok"}
}

// runContext records where and how a result was measured.
type runContext struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Callers    int    `json:"callers"`
	Windows    int    `json:"windows"`
	Setups     int    `json:"setup_repeats"`
	Recoveries int    `json:"recover_repeats"`
	// StealFrac is the share of CPU time the hypervisor stole during the
	// timed phase (from /proc/stat; 0 where unavailable) — the main
	// source of run-to-run noise on a shared VM.
	StealFrac float64 `json:"steal_frac"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the steal and total ticks of /proc/stat's cpu line.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// result is everything one run measured; the final JSON line is a
// projection of it, the result file all of it.
type result struct {
	Workload  string                `json:"workload"`
	Why       string                `json:"why"`
	Traced    bool                  `json:"traced"`
	Context   runContext            `json:"context"`
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Gates     []gate                `json:"gates"`
	Metrics   map[string]metric     `json:"metrics"`
	SetupS    []float64             `json:"setup_s"`
	WinMops   []float64             `json:"window_mops"`
	Tails     map[string]tail       `json:"tails"`
	Layers    map[string]*layerStat `json:"layers"`
	Panics    []string              `json:"panics,omitempty"`
	Dropped   uint64                `json:"spans_dropped"`
	spans     []span
}

// run sets the workload up opts.setups times (keeping the last), runs the
// timed phase, measures memory, and runs the correctness gates.
func run(w *workload, o options) (*result, error) {
	wl := *w
	if o.keyRange != 0 {
		wl.keyRange = o.keyRange
	}
	p := plan{
		callers:   callers,
		windows:   int(float64(o.seconds)/o.winSec + 0.5),
		winLen:    int64(o.winSec * 1e9),
		traced:    o.traced,
		sampleLog: wl.sampleLog,
		traceLog:  wl.traceLog,
		stall:     int64(stallTimeout),
	}
	if p.windows < 2 {
		p.windows = 2
	}
	res := &result{
		Workload: wl.name, Why: wl.why, Traced: o.traced,
		Context: runContext{
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPU: cpuModel(), Seed: o.seed, Seconds: o.seconds, Callers: p.callers,
			Windows: p.windows, Setups: o.setups, Recoveries: recoveries,
		},
		Metrics: map[string]metric{},
	}
	rec := &recorder{}
	var sys system
	var prefillSum uint64
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, sum, err := wl.setup(&wl, o.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		sys, prefillSum = s, sum
	}
	// Memory of the loaded system, before the timed phase: afterwards
	// the heap also holds latency samples, spans and (on the replicated
	// pair) an op log whose slice grows in doublings.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
	set("mem_bytes_per_key", float64(ms.HeapAlloc)/float64(max(sys.keys(), 1)))

	before := sys.counters()
	steal0, total0 := cpuTicks()
	ph := runPhase(sys, rec, p, o.seed, &wl)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		res.Context.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	res.Attempted, res.Failed, res.Panics = ph.attempted, ph.failed, ph.panics
	if ph.stalled {
		// The stuck callers still hold the system; it is not closed.
		res.Gates = append(res.Gates, gate{"progress", false, fmt.Sprintf("no operation completed for %v", stallTimeout)})
		return res, nil
	}
	defer sys.close()
	after := sys.counters()
	delta := func(k string) float64 { return after[k] - before[k] }

	// End-to-end figures come from the untraced windows, pooled: GC
	// cycles land in some windows and not others, so per-window figures
	// are bimodal and their median jumps between the modes.
	untraced := func(i int) bool { return !p.tracedWindow(i) }
	set("throughput_mops", meanMops(ph.winMops, untraced))
	res.Tails = map[string]tail{}
	for c := latClass(0); c < numClasses; c++ {
		var pooled []uint32
		for i := 0; i < p.windows; i++ {
			if untraced(i) {
				pooled = append(pooled, ph.winLat[i][c]...)
			}
		}
		slices.Sort(pooled)
		name := classNames[c]
		set(name+"_samples", float64(len(pooled)))
		for _, q := range []float64{0.50, 0.90, 0.99} {
			m := fmt.Sprintf("%s_p%d_us", name, int(q*100))
			if supports(len(pooled), q) && (c == latUpdate || q != 0.90) {
				set(m, float64(quantile(pooled, q))/1e3)
			}
		}
		if c == latUpdate {
			set("update_iqm_us", interquartileMean(pooled)/1e3)
		}
		if t, ok := highestTail(pooled); ok {
			res.Tails[name] = t
		}
	}
	if !supports(int(res.Metrics["update_samples"].Value), 0.90) {
		res.Gates = append(res.Gates, gate{"latency.samples", false, "too few update samples for a p90"})
	}
	set("setup_s", median(res.SetupS))
	set("error_rate", errorRate(ph.attempted, ph.failed))
	set("trace.untraced_mops", res.Metrics["throughput_mops"].Value)
	if o.traced {
		tr := meanMops(ph.winMops, p.tracedWindow)
		set("trace.traced_mops", tr)
		set("trace.overhead_frac", 1-tr/res.Metrics["throughput_mops"].Value)
	}
	res.WinMops = ph.winMops

	// Per-layer figures: span durations and self times, and the
	// program's own counters over the timed phase.
	res.Layers = layerStats(ph.spans)
	res.spans, res.Dropped = ph.spans, ph.dropped
	set("trace.spans", float64(len(ph.spans)))
	dur := func(name string, per float64) float64 {
		if st := res.Layers[name]; st != nil {
			return st.DurNs / per
		}
		return 0
	}
	for _, n := range []string{"core.update", "core.find", "rq.scan", "pabtree.update", "pabtree.find",
		"client.call", "server.dict", "server.repl_ack", "server.repl_apply"} {
		set(n+"_ns", dur(n, 1))
	}
	set("wire.encode_ns", dur("wire.encode", wireReps))
	set("wire.decode_ns", dur("wire.decode", wireReps))
	if st := res.Layers["client.call"]; st != nil {
		set("server.transport_queue_ns", st.SelfNs)
	}
	updates := float64(ph.kinds[opInsert] + ph.kinds[opDelete])
	scans := float64(ph.landed[opScan])
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("core.elim_frac", ratio(delta("elim"), updates))
	set("rq.versions_per_scan", ratio(delta("rq.versions"), delta("rq.scans")))
	set("rq.pairs_per_scan", ratio(float64(ph.pairs), scans))
	set("pmem.flushes_per_update", ratio(delta("pmem.flushes"), updates))
	set("pmem.fences_per_update", ratio(delta("pmem.fences"), updates))
	set("cluster.failovers", delta("cluster.failovers"))

	gates, extra := sys.verify(prefillSum + ph.sumDelta + o.keySkew)
	for k, v := range extra {
		set(k, v)
	}
	if ph.failed > 0 {
		gates = append(gates, gate{"no_failed_ops", false,
			fmt.Sprintf("%d of %d operations failed; the key sum cannot be reconciled", ph.failed, ph.attempted)})
	}
	res.Gates = append(res.Gates, gates...)
	return res, nil
}

func (r *result) passed() bool {
	if r.Failed > 0 {
		return false
	}
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return true
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summary {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	s := summary{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		s.Metrics[d.name] = metric{r.Metrics[d.name].Value, d.unit}
	}
	return s
}

func (r *result) report(w *bufio.Writer) {
	c := r.Context
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.Workload, c.Seed, c.Seconds, r.Traced)
	fmt.Fprintf(w, "# why: %s\n", r.Why)
	fmt.Fprintf(w, "# context: nproc=%d GOMAXPROCS=%d go=%s cpu=%q callers=%d windows=%d setups=%d steal=%.3f\n",
		c.Nproc, c.GOMAXPROCS, c.GoVersion, c.CPU, c.Callers, c.Windows, c.Setups, c.StealFrac)
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# gate %-22s %-4s %s\n", g.Name, status, g.Detail)
	}
	fmt.Fprintf(w, "# ops attempted=%d failed=%d error_rate=%g\n", r.Attempted, r.Failed, errorRate(r.Attempted, r.Failed))
	for _, p := range r.Panics {
		fmt.Fprintf(w, "# panic: %s\n", p)
	}
	for _, name := range []string{"find", "update", "scan"} {
		if t, ok := r.Tails[name]; ok {
			fmt.Fprintf(w, "# tail %-6s p%g = %.3f us (n=%d)\n", name, t.Q*100, float64(t.Value)/1e3, t.N)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Fprintf(w, "# metric %-26s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "timed-phase length in seconds")
		traced  = flag.Int("trace", 0, "1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "directory for the full result and the spans (optional)")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Backstop: a run that hangs outside the watchdogged phase still
	// ends, with a goroutine dump, well inside the run budget.
	time.AfterFunc(150*time.Second, func() {
		dumpGoroutines("run exceeded 150s")
		os.Exit(3)
	})
	o := defaultOptions()
	o.seed, o.seconds, o.traced = *seed, *seconds, *traced == 1
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.Correct = res.passed()
	if *out != "" {
		if err := save(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	bw := bufio.NewWriter(os.Stdout)
	res.report(bw)
	line, err := json.Marshal(res.summary())
	if err != nil {
		panic(err)
	}
	bw.Write(line)
	bw.WriteByte('\n')
	bw.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// save writes the full result as JSON, and the spans of a traced run as
// TSV, under dir.
func save(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Context.Seed, btoi(r.Traced)))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.Traced {
		return writeSpans(base+"-spans.tsv", r.spans)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
