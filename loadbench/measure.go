package main

// Measurement plumbing shared by the workloads: latency samples,
// percentiles, the peak-heap sampler, the obs-registry snapshot diff,
// and the benchmark's own span recorder.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crowddb/internal/obs"
)

// samples collects latencies in milliseconds. Not safe for concurrent
// use: each client owns its own and merges them at the end.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the q-quantile (0..1) by nearest rank; NaN when empty.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// describe prints a sample set's count and quantiles as a comment line
// of the human-readable output.
func (s samples) describe(name string) {
	fmt.Printf("# %-16s n=%-6d p10=%.4f p25=%.4f p50=%.4f p75=%.4f p90=%.4f p99=%.4f max=%.4f ms\n",
		name, len(s), s.pct(0.1), s.pct(0.25), s.pct(0.5), s.pct(0.75), s.pct(0.9), s.pct(0.99), s.pct(1))
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func median(v []float64) float64 { return samples(v).pct(0.5) }

// opRec is one measured operation.
type opRec struct {
	at   time.Duration // completion, since the pass started
	kind int
	lat  float64 // ms, submit to last row or completion
}

// timeline is a pass's operations in completion order.
type timeline []opRec

// nSlices is how many consecutive slices a timeline is cut into. Rates
// are the median of their per-slice values, so a burst of noise from the
// shared machine (a slow disk, a stolen CPU) that covers less than half
// of a pass moves none of them.
const nSlices = 10

// cut splits tl into up to nSlices consecutive parts of whole units (a
// unit is one block of the workload's mix, so every part runs the same
// mix) of as near the same size as the units allow; the last part also
// takes an unfinished block.
func (tl timeline) cut(unit int) []timeline {
	blocks := len(tl) / unit
	n := min(nSlices, max(blocks, 1))
	var out []timeline
	prev := 0
	for i := 1; i <= n; i++ {
		end := i * blocks / n * unit
		if i == n {
			end = len(tl)
		}
		if end > prev {
			out = append(out, tl[prev:end])
			prev = end
		}
	}
	return out
}

// sliceValues is f over each slice; f gets the slice and the span of
// the pass it covers. A NaN is left out.
func (tl timeline) sliceValues(unit int, f func(part timeline, from, to time.Duration) float64) []float64 {
	var vals []float64
	prev := time.Duration(0)
	for _, part := range tl.cut(unit) {
		end := part[len(part)-1].at
		if v := f(part, prev, end); !math.IsNaN(v) {
			vals = append(vals, v)
		}
		prev = end
	}
	return vals
}

// samples returns the latencies of the operations of the given kinds
// (of every kind when none is given).
func (tl timeline) samples(kinds ...int) samples {
	var s samples
	for _, r := range tl {
		if len(kinds) == 0 || slices.Contains(kinds, r.kind) {
			s = append(s, r.lat)
		}
	}
	return s
}

// kindP50 is the geometric mean, over the operation kinds of the pass,
// of each kind's median latency over the whole pass. Every
// kind weighs the same whatever its share of the mix, so a kind that
// makes up a tenth of a workload still moves the figure. And unlike a
// quantile over all operations together, which falls on the boundary
// between two kinds of very different cost and flips from run to run,
// each kind's median is taken among operations of one cost.
func (tl timeline) kindP50() float64 {
	by := map[int]samples{}
	for _, r := range tl {
		by[r.kind] = append(by[r.kind], r.lat)
	}
	if len(by) == 0 {
		return math.NaN()
	}
	kinds := make([]int, 0, len(by))
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	logs := 0.0
	for _, k := range kinds {
		logs += math.Log(by[k].pct(0.5))
	}
	return math.Exp(logs / float64(len(kinds)))
}

// opsPerSec is the throughput of each slice.
func (tl timeline) opsPerSec(unit int) []float64 {
	return tl.sliceValues(unit, func(part timeline, from, to time.Duration) float64 {
		return float64(len(part)) / (to - from).Seconds()
	})
}

// passMetrics are the figures of one measured pass cut into blocks of
// unit operations: the slice median of process CPU time per operation
// and the peak live heap, and the wall-clock figures: the slice median
// of throughput and the per-kind median latency.
func passMetrics(tl timeline, unit int, use usage) map[string]float64 {
	return map[string]float64{
		"wall.ops_per_s":   median(tl.opsPerSec(unit)),
		"wall.kind_p50_ms": tl.kindP50(),
		"cpu_ms_per_op": median(tl.sliceValues(unit, func(part timeline, from, to time.Duration) float64 {
			return ms(use.cpuAt(to)-use.cpuAt(from)) / float64(len(part))
		})),
		"peak_heap_mb": use.heapMB,
	}
}

// setWall sets a traced run's wall-clock layer figures from the
// untraced pass it runs first.
func setWall(rep *report, m map[string]float64) {
	for _, n := range []string{"wall.ops_per_s", "wall.kind_p50_ms"} {
		rep.set(n, m[n])
	}
}

// describeKinds prints each kind's latency quantiles.
func describeKinds(tl timeline, kindNames []string) {
	for k, n := range kindNames {
		tl.samples(k).describe(n)
	}
}

// meter tracks what a measured pass costs the process: the peak live
// heap (the bytes the last GC marked live) and the CPU time. Live
// bytes, unlike heap size, do not depend on when the collector happens
// to run. The heap is read from runtime/metrics, which does not stop
// the world, so sampling does not disturb tail latencies. CPU time is
// the process's user plus system time, sampled with the heap; the load
// of other guests on a shared host moves it far less than wall time
// (see README.md).
type meter struct {
	t0   time.Time // the pass's start
	peak atomic.Uint64
	cpu  []cpuSample // written by the sampler goroutine until done
	stop chan struct{}
	done chan struct{}
}

// cpuSample is the process's CPU time at a moment of the pass.
type cpuSample struct{ at, cpu time.Duration }

// usage is what a pass cost.
type usage struct {
	heapMB float64     // peak live heap, MiB
	cpu    []cpuSample // every 10 ms, from the start to the end
}

// cpuAt is the CPU time used between the pass's start and at, read off
// the samples by linear interpolation.
func (u usage) cpuAt(at time.Duration) time.Duration {
	c := u.cpu
	i := sort.Search(len(c), func(i int) bool { return c[i].at >= at })
	switch {
	case i == 0:
		return 0
	case i == len(c):
		return c[len(c)-1].cpu - c[0].cpu
	}
	a, b := c[i-1], c[i]
	f := float64(at-a.at) / float64(max(b.at-a.at, 1))
	return a.cpu + time.Duration(f*float64(b.cpu-a.cpu)) - c[0].cpu
}

func startMeter() *meter {
	h := &meter{t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		h.cpu = append(h.cpu, cpuSample{at: time.Since(h.t0), cpu: processCPU()})
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// end stops the meter and returns the pass's usage.
func (h *meter) end() usage {
	close(h.stop)
	<-h.done
	return usage{heapMB: float64(h.peak.Load()) / (1 << 20), cpu: h.cpu}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// regSnapshot is one scrape of an obs registry: series text (name plus
// rendered labels) to value. It reads the registry's own Prometheus
// exposition, so the program needs no extra instrumentation.
type regSnapshot map[string]float64

func scrape(reg *obs.Registry) (regSnapshot, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape registry: %w", err)
	}
	snap := regSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape registry: %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// diff returns after − before for every series in after.
func (after regSnapshot) diff(before regSnapshot) regSnapshot {
	d := regSnapshot{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// family sums every series of one metric name across its labels.
func (s regSnapshot) family(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// byLabel sums one metric name per value of the given label.
func (s regSnapshot) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	prefix := name + "{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		j := strings.Index(k, label+`="`)
		if j < 0 {
			continue
		}
		rest := k[j+len(label)+2:]
		out[rest[:strings.IndexByte(rest, '"')]] += v
	}
	return out
}

// span is one interval the benchmark recorded around a call into a
// layer. Parent is the index of the enclosing span (-1 for a root); Req
// groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory for the traced pass; a nil *tracer
// records nothing, which is how the untraced pass runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfMS returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of it its children cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, x := range iv {
			if x[1] <= x[0] {
				continue
			}
			if x[0] > curE {
				covered += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		covered += curE - curS
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, after a header
// line carrying the run's identity.
func (t *tracer) writeJSONL(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
