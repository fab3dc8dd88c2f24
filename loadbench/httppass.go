package main

// The measured loop shared by the two HTTP workloads: one closed-loop
// client submitting generated jobs through pkg/client, checking each
// answer, and (traced) splitting each job into client-side parser and
// optimizer calls plus the server's submit and stream.

import (
	"context"
	"runtime"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/parser"
)

// job is one generated statement, its kind (the stream's query shape)
// and the check its answer must pass. check returns how many
// crowd-decided values were right out of how many were decided, and a
// description of any wrong answer.
type job struct {
	kind  int
	sql   string
	check func(opResult) (right, decided int, problem string)
}

type jobStream interface {
	next() job
	blocks() *mixer
}

// httpPassStats is what the client saw during one pass.
type httpPassStats struct {
	tl             timeline // every job that succeeded
	unit           int      // jobs per block of the mix
	submit, stream samples
	parse, compile samples
	jobLat         samples // per job issued, in order (for the overhead probe)
	sqls           []string
	right, decided []int // per job issued, in order
	use            usage
}

func (p *httpPassStats) jobsPerSec() float64 { return median(p.tl.opsPerSec(p.unit)) }

func (p *httpPassStats) jobs() int64 { return int64(len(p.sqls)) }

// httpPass runs the first jobs jobs of the stream, rounded up to a whole
// block.
func httpPass(jobs int, c httpConn, eng *core.Engine, stream jobStream, tr *tracer, taps *crowdTaps, rep *report) *httpPassStats {
	ctx := context.Background()
	ps := &httpPassStats{unit: len(stream.blocks().block)}
	runtime.GC()
	meter := startMeter()
	start := meter.t0
	for req := int64(0); req < int64(jobs) || !stream.blocks().blockStart(); req++ {
		j := stream.next()
		rep.attempted.Add(1)
		var res opResult
		var err error
		if tr == nil {
			res, err = c.do(ctx, j.sql)
		} else {
			res, err = tracedJob(ctx, c, eng, tr, taps, req, j.sql, ps)
		}
		right, decided := 0, 0
		if err != nil {
			rep.fail("%s: %v", j.sql, err)
		} else {
			var problem string
			right, decided, problem = j.check(res)
			if problem != "" {
				rep.fail("%s", problem)
			}
			ps.tl = append(ps.tl, opRec{at: time.Since(start), kind: j.kind, lat: ms(res.total)})
			ps.submit.add(res.submit)
			ps.stream.add(res.total - res.submit)
		}
		ps.right = append(ps.right, right)
		ps.decided = append(ps.decided, decided)
		ps.sqls = append(ps.sqls, j.sql)
		ps.jobLat = append(ps.jobLat, ms(res.total))
	}
	ps.use = meter.end()
	return ps
}

// tracedJob parses and forecasts the statement client-side (the
// parser's and optimizer's share of a job), then runs it as a job with
// the submit and stream under spans.
func tracedJob(ctx context.Context, c httpConn, eng *core.Engine, tr *tracer, taps *crowdTaps, req int64, sql string, ps *httpPassStats) (opResult, error) {
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	sp := tr.begin("parser", root, req)
	t := time.Now()
	stmt, err := parser.Parse(sql)
	ps.parse.add(time.Since(t))
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	sp = tr.begin("optimizer", root, req)
	t = time.Now()
	eng.Forecast(stmt)
	ps.compile.add(time.Since(t))
	tr.end(sp)
	var probe *crowdProbe
	if taps != nil {
		probe = taps.probe
		probe.req.Store(req)
		defer probe.nest(-1)
	}
	return c.doTraced(ctx, sql, tr, probe, root, req)
}

// serverLayers reports the server's split for a traced pass: submit and
// stream round trips, and the job's overhead over a library Execute of
// the same SQL, run afterwards for up to probeJobs of the pass's jobs.
// The library runs also give the executor's rows scanned per row out.
func serverLayers(ctx context.Context, eng *core.Engine, tr *tracer, ps *httpPassStats, probeJobs int, rep *report) error {
	rep.set("parser.parse_us", 1000*ps.parse.pct(0.5))
	rep.set("parser.parse_share", ps.parse.sum()/ps.tl.samples().sum())
	rep.set("optimizer.compile_us", 1000*ps.compile.pct(0.5))
	rep.set("server.submit_ms", ps.submit.pct(0.5))
	rep.set("server.stream_ms", ps.stream.pct(0.5))
	var over samples
	var overSum float64
	var rows, scanned int64
	for i := 0; i < len(ps.sqls) && i < probeJobs; i++ {
		root := tr.begin("probe.lib_execute", -1, int64(i))
		t := time.Now()
		res, err := eng.Execute(ctx, ps.sqls[i], core.DefaultExecOpts())
		lib := time.Since(t)
		tr.end(root)
		if err != nil {
			return err
		}
		d := ps.jobLat[i] - ms(lib)
		over = append(over, d)
		overSum += d
		rows += int64(len(res.Rows))
		scanned += int64(res.Stats.RowsScanned)
	}
	rep.set("server.overhead_ms", over.pct(0.5))
	if rows > 0 {
		rep.set("server.encode_ns_per_row", 1e6*overSum/float64(rows))
		rep.set("exec.rows_scanned_per_row_out", float64(scanned)/float64(rows))
	}
	return nil
}
