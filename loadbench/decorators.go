package main

// Timing decorators over the crowd seams. They split the wall time spent
// inside the simulated crowd (the platform simulators and the ground-
// truth oracle) from the program's own crowd-path time, and count calls
// per Platform method. They delegate every call unchanged, Name()
// included, so the task manager's per-platform accounting and every
// crowd count stay identical with the decorators on or off.

import (
	"sync"
	"sync/atomic"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
)

var platformMethods = []string{"post", "status", "results", "approve", "reject", "expire", "step", "now"}

// callStats accumulates calls and wall time per method.
type callStats struct {
	mu    sync.Mutex
	calls map[string]int64
	wall  map[string]time.Duration
}

func newCallStats() *callStats {
	return &callStats{calls: map[string]int64{}, wall: map[string]time.Duration{}}
}

func (c *callStats) note(method string, d time.Duration) {
	c.mu.Lock()
	c.calls[method]++
	c.wall[method] += d
	c.mu.Unlock()
}

func (c *callStats) total() (calls int64, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for m, n := range c.calls {
		calls += n
		wall += c.wall[m]
	}
	return calls, wall
}

// crowdProbe routes decorator spans to the request the single crowd
// client is running. The crowd workload runs one client, so the
// current request is unambiguous.
type crowdProbe struct {
	tr   *tracer
	req  atomic.Int64
	root atomic.Int64
}

func (p *crowdProbe) span(name string) int {
	if p == nil || p.tr == nil {
		return -1
	}
	return p.tr.begin(name, int(p.root.Load()), p.req.Load())
}

// nest makes span i the parent of the decorator spans that follow.
func (p *crowdProbe) nest(i int) {
	if p != nil {
		p.root.Store(int64(i))
	}
}

func (p *crowdProbe) endSpan(i int) {
	if p != nil {
		p.tr.end(i)
	}
}

// timedPlatform decorates a crowd.Platform.
type timedPlatform struct {
	inner crowd.Platform
	stats *callStats
	probe *crowdProbe
}

func (p *timedPlatform) time(method string) func() {
	sp := p.probe.span("crowd." + p.inner.Name())
	start := time.Now()
	return func() {
		p.stats.note(method, time.Since(start))
		p.probe.endSpan(sp)
	}
}

func (p *timedPlatform) Name() string { return p.inner.Name() }

func (p *timedPlatform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	defer p.time("post")()
	return p.inner.Post(g)
}

func (p *timedPlatform) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	defer p.time("status")()
	return p.inner.Status(id)
}

func (p *timedPlatform) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	defer p.time("results")()
	return p.inner.Results(id)
}

func (p *timedPlatform) Approve(assignmentID string, bonus crowd.Cents) error {
	defer p.time("approve")()
	return p.inner.Approve(assignmentID, bonus)
}

func (p *timedPlatform) Reject(assignmentID string, reason string) error {
	defer p.time("reject")()
	return p.inner.Reject(assignmentID, reason)
}

func (p *timedPlatform) Expire(id crowd.GroupID) error {
	defer p.time("expire")()
	return p.inner.Expire(id)
}

func (p *timedPlatform) Step(d time.Duration) {
	defer p.time("step")()
	p.inner.Step(d)
}

func (p *timedPlatform) Now() time.Duration {
	defer p.time("now")()
	return p.inner.Now()
}

// timedOracle decorates a taskmgr.Oracle.
type timedOracle struct {
	inner taskmgr.Oracle
	stats *callStats
	probe *crowdProbe
}

func (o *timedOracle) time(method string) func() {
	sp := o.probe.span("sim.oracle")
	start := time.Now()
	return func() {
		o.stats.note(method, time.Since(start))
		o.probe.endSpan(sp)
	}
}

func (o *timedOracle) ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	defer o.time("probe")()
	return o.inner.ProbeTruth(table, known, ask)
}

func (o *timedOracle) NewTupleTruth(table string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
	defer o.time("tuple")()
	return o.inner.NewTupleTruth(table, prefill, i)
}

func (o *timedOracle) CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
	defer o.time("compare")()
	return o.inner.CompareTruth(kind, question, left, right)
}

// crowdTaps holds the decorators of one system, so a pass can read what
// the simulated crowd cost it. Nil when the decorators are off.
type crowdTaps struct {
	platforms map[string]*callStats
	oracle    *callStats
	probe     *crowdProbe
}

func newCrowdTaps(tr *tracer) *crowdTaps {
	probe := &crowdProbe{tr: tr}
	probe.root.Store(-1)
	return &crowdTaps{platforms: map[string]*callStats{}, oracle: newCallStats(), probe: probe}
}

// wrapPlatform decorates p when taps are on; otherwise returns p as is.
func (t *crowdTaps) wrapPlatform(p crowd.Platform) crowd.Platform {
	if t == nil || p == nil {
		return p
	}
	st := newCallStats()
	t.platforms[p.Name()] = st
	return &timedPlatform{inner: p, stats: st, probe: t.probe}
}

func (t *crowdTaps) wrapOracle(o taskmgr.Oracle) taskmgr.Oracle {
	if t == nil {
		return o
	}
	return &timedOracle{inner: o, stats: t.oracle, probe: t.probe}
}
