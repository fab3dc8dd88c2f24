// Command loadbench is CrowdDB's end-to-end benchmark: a seeded,
// single-process, closed-loop load generator that drives one of three
// workloads against the library API or the HTTP jobs API, checks every
// answer, and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the workloads, the metric
// definitions and which layer metric should move which end-to-end one.
//
//	loadbench --workload oltp_durable --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// e2eSpecs are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MiB"},
	{"cents_per_query", "cents"},
	{"crowd_vsec_per_query", "s"},
	{"answer_accuracy", "ratio"},
}

// layerSpecs are the per-layer metrics every traced run reports. A
// layer a workload bypasses reports 0.
var layerSpecs = func() []spec {
	s := []spec{
		{"parser.parse_us", "us"},
		{"parser.parse_share", "ratio"},
		{"optimizer.compile_us", "us"},
		{"core.exec_stmt_us.read", "us"},
		{"core.exec_stmt_us.insert", "us"},
		{"core.exec_stmt_us.update", "us"},
		{"obs.engine_tracing_ratio", "ratio"},
	}
	for _, op := range execOps {
		s = append(s, spec{"exec.op_wall_ms." + op, "ms"})
	}
	s = append(s,
		spec{"exec.rows_per_batch", "count"},
		spec{"exec.rows_scanned_per_row_out", "ratio"},
		spec{"storage.lookup_pk_us", "us"},
		spec{"storage.scan_ns_per_row", "ns"},
		spec{"storage.commit_us", "us"},
		spec{"storage.wal_fsyncs_per_write", "ratio"},
		spec{"storage.wal_fsync_ms", "ms"},
		spec{"storage.wal_rows_per_fsync", "count"},
		spec{"storage.wal_bytes_per_user_byte", "ratio"},
		spec{"storage.mvcc_retained_versions", "count"},
		spec{"storage.gc_reclaimed", "count"},
		spec{"server.submit_ms", "ms"},
		spec{"server.stream_ms", "ms"},
		spec{"server.overhead_ms", "ms"},
		spec{"server.encode_ns_per_row", "ns"},
		spec{"server.journal_bytes_per_job", "B"},
		spec{"taskmgr.groups_per_query", "count"},
		spec{"taskmgr.hits_per_query", "count"},
		spec{"taskmgr.assignments_per_query", "count"},
		spec{"taskmgr.retries", "count"},
		spec{"taskmgr.peak_in_flight", "count"},
		spec{"taskmgr.group_roundtrip_p50_vsec", "s"},
		spec{"taskmgr.escalation_ratio", "ratio"},
		spec{"cache.hit_ratio", "ratio"},
		spec{"cache.evictions", "count"},
	)
	for _, p := range []string{"amt", "model"} {
		for _, m := range platformMethods {
			s = append(s, spec{"crowd." + p + "." + m + ".calls_per_job", "count"}, spec{"crowd." + p + "." + m + ".ms_per_job", "ms"})
		}
	}
	s = append(s,
		spec{"crowd.status_polls_per_group", "ratio"},
		spec{"crowd.program_ms", "ms"},
		spec{"sim.oracle_ms", "ms"},
		spec{"sim.platform_ms", "ms"},
		spec{"trace.overhead_ratio", "ratio"},
		spec{"trace.spans_per_request", "count"},
	)
	for _, n := range selfSpans {
		s = append(s, spec{"self_ms." + n, "ms"})
	}
	return append(s, spec{"wall.ops_per_s", "1/s"}, spec{"wall.kind_p50_ms", "ms"})
}()

// execOps are the operator families exec.op_wall_ms is reported for;
// operator labels outside the list fold into "other".
var execOps = []string{"scan", "filter", "project", "aggregate", "sort", "limit", "join", "other"}

// selfSpans are the span names the benchmark records around layer calls.
var selfSpans = []string{"request", "parser", "optimizer", "core", "server.submit", "server.stream",
	"probe.lib_execute", "crowd.amt", "crowd.model", "sim.oracle"}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for data dirs; removed at exit
	out      string // where span files are written
}

// report accumulates a run's outcome. Clients update the counters
// concurrently; metrics are set once at the end of a pass.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string
	metrics  map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail counts one failed or wrong operation and keeps the first few
// descriptions for the human-readable output.
func (r *report) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(runCfg, *report) error{
	"oltp_durable":  runOLTP,
	"scan_http":     runScan,
	"crowd_durable": runCrowd,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runCfg
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp_durable, scan_http or crowd_durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "a plain run starts rounds until this many seconds have passed")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_work", "scratch directory (removed at exit)")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "loadbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		return 2
	}
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	rep := newReport()
	fmt.Printf("# loadbench workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d NumCPU=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := fn(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	specs := e2eSpecs
	if cfg.trace {
		specs = layerSpecs
	}
	out := resultOut{
		Attempted: rep.attempted.Load(),
		Failed:    rep.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "loadbench: metric %s was not measured\n", s.name)
			return 1
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Printf("%-40s %14.4f %s\n", s.name, v, s.unit)
	}
	if !cfg.trace {
		for _, n := range []string{"wall.ops_per_s", "wall.kind_p50_ms"} {
			fmt.Printf("# %-38s %14.4f (not gated: see README.md)\n", n, rep.metrics[n])
		}
	}
	for _, p := range rep.problems {
		fmt.Println("# FAILED:", p)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", out.Attempted, out.Failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// minRounds is the fewest rounds a plain run measures, however slow
// the machine.
const minRounds = 3

// roundFn sets a fresh system up, runs one fixed pass on it and tears it
// down, returning the pass's figures (passMetrics) with setup_s, the
// process CPU time of the set-up in seconds, added.
type roundFn func(i int) (map[string]float64, error)

// runRounds is a plain run: rounds started until cfg.seconds have passed
// and at least minRounds have run. Every round does the same work, so
// each figure is the median over the rounds: a stretch of load from the
// other guests of a shared host that slows less than half of them moves
// none.
func runRounds(cfg runCfg, rep *report, round roundFn) error {
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	per := map[string][]float64{}
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		m, err := round(i)
		if err != nil {
			return err
		}
		fmt.Printf("# round %d: setup %.3f CPU s, %.4f CPU ms/op, peak heap %.1f MiB, %.1f ops/s, kind p50 %.4f ms\n",
			i, m["setup_s"], m["cpu_ms_per_op"], m["peak_heap_mb"], m["wall.ops_per_s"], m["wall.kind_p50_ms"])
		for name, v := range m {
			per[name] = append(per[name], v)
		}
	}
	for name, v := range per {
		rep.set(name, median(v))
	}
	return nil
}

// setupCPU runs open and returns what it built with the process CPU
// time it took in seconds. The stretches in which the host runs other
// guests on this machine's CPUs move CPU time far less than wall time
// (see README.md).
func setupCPU[T any](open func() (T, error)) (T, float64, error) {
	cpu0 := processCPU()
	sys, err := open()
	return sys, (processCPU() - cpu0).Seconds(), err
}

// setSelfTimes reports the tracer's self times per request and writes
// the span file.
func setSelfTimes(cfg runCfg, rep *report, tr *tracer, requests int) error {
	self := tr.selfMS()
	for _, n := range selfSpans {
		rep.set("self_ms."+n, self[n]/float64(max(requests, 1)))
	}
	tr.mu.Lock()
	rep.set("trace.spans_per_request", float64(len(tr.spans))/float64(max(requests, 1)))
	tr.mu.Unlock()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	return tr.writeJSONL(path, map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"requests": requests, "span_names": strings.Join(names, ","),
	})
}

// zeroLayers sets every per-layer metric not yet measured to 0: the
// workload does not exercise that layer.
func zeroLayers(rep *report) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for _, s := range layerSpecs {
		if _, ok := rep.metrics[s.name]; !ok {
			rep.metrics[s.name] = 0
		}
	}
}
