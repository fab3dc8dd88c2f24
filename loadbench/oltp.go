package main

// oltp_durable: the library API on a durable data directory with the
// default group-commit WAL, one ~20k-row keyed table, two clients in
// lockstep steps running 80% primary-key reads, 10% inserts of new keys
// and 10% increments by primary key. Per-statement fixed costs dominate: parse,
// compile, engine tracing, the PK lookup and the WAL fsync. The server
// and the crowd are bypassed.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"crowddb"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	oltpRows    = 20000
	oltpClients = 2
	loadBatch   = 500
	// companionTalks is the size of the Talk table a machine workload's
	// crowd companion probes once each after the measured loop.
	companionTalks = 400
)

type oltpSys struct {
	dir  string
	db   *crowddb.DB
	conf *workload.Conference
}

func (s *oltpSys) close() {
	s.db.Close()
	os.RemoveAll(s.dir)
}

func openOLTP(cfg runCfg, i int) (*oltpSys, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("oltp-%d", i))
	conf := workload.NewConference(companionTalks, cfg.seed)
	db, err := crowddb.Open(crowddb.Config{
		DataDir:  dir,
		Platform: crowddb.NewAMTPlatform(cfg.seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		return nil, err
	}
	s := &oltpSys{dir: dir, db: db, conf: conf}
	stmts := append([]string{keyedDDL("acct")}, keyedLoad("acct", oltpRows, loadBatch)...)
	stmts = append(stmts, talkDDL, talkLoad(conf.Talks))
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			s.close()
			return nil, fmt.Errorf("oltp setup: %w", err)
		}
	}
	return s, nil
}

// passStats is what a measured pass saw. The timeline holds every
// statement; the rest is one client's share until the clients' stats are
// merged.
type passStats struct {
	tl      timeline
	rows    int64
	scanned int64
	userB   int64 // encoded bytes of the rows the client wrote
	parse   samples
	compile samples
	exec    [3]samples // engine time minus compile, per kind
	use     usage
}

func (p *passStats) merge(o *passStats) {
	for k := range p.exec {
		p.exec[k] = append(p.exec[k], o.exec[k]...)
	}
	p.parse = append(p.parse, o.parse...)
	p.compile = append(p.compile, o.compile...)
	p.rows += o.rows
	p.scanned += o.scanned
	p.userB += o.userB
}

func (p *passStats) writes() int64 { return int64(len(p.tl.samples(opInsert, opUpdate))) }

// oltpUnit is one block of the mix for every client: the timeline's
// slices hold whole units.
const oltpUnit = 10 * oltpClients

// oltpSteps is the size of a pass: every client issues this many
// statements, a whole number of blocks of the mix.
const oltpSteps = 800

// oltpPass runs the clients for oltpSteps lockstep steps: each step
// every client issues one statement and the next step starts when all
// have answered. The statements of a step run concurrently, so
// reads meet the other client's writes, full-scan UPDATEs included, but
// which statements meet is fixed by the seed rather than by timing, and
// no write waits for the engine's write lock behind the other client's
// (see oltpStream). Left free-running, the two symmetric clients put
// about half of all inserts behind the other's 20 ms UPDATE, and
// the insert median flips between the two modes from run to run; letting
// both write in one step puts a tenth of the UPDATEs behind another,
// and the write tail flips the same way. With tr set, each statement is
// split into parse, compile and engine calls under spans.
func oltpPass(cfg runCfg, sys *oltpSys, tr *tracer, rep *report) *passStats {
	ctx := context.Background()
	clients := make([]*oltpClient, oltpClients)
	for c := range clients {
		clients[c] = newOLTPClient(cfg.seed, sys, c)
	}
	runtime.GC()
	meter := startMeter()
	start := meter.t0
	total := &passStats{}
	recs := make([]opRec, len(clients))
	ok := make([]bool, len(clients))
	for step := 0; step < oltpSteps; step++ {
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *oltpClient) {
				defer wg.Done()
				recs[i], ok[i] = cl.step(ctx, start, tr, rep)
			}(i, cl)
		}
		wg.Wait()
		for i := range clients {
			if ok[i] {
				total.tl = append(total.tl, recs[i])
			}
		}
	}
	total.use = meter.end()
	for _, cl := range clients {
		total.merge(cl.ps)
	}
	return total
}

// oltpStream is client c's statement stream: it owns the initial keys
// [c·n, (c+1)·n) and inserts new keys from a range no other client uses.
// Its writes fall in its own half of each 10-step block, so the two
// clients never write in the same step.
func oltpStream(seed int64, c int) *keyedStream {
	own := int64(oltpRows / oltpClients)
	s := newKeyedStream(streamRNG(seed, "oltp", c), "acct", int64(c)*own, own, int64(c+1)*1_000_000_000, 8, 1, 1)
	half := len(s.mix.block) / oltpClients
	s.mix.lo, s.mix.hi = c*half, (c+1)*half
	return s
}

// oltpClient is one client's stream, its model of the keys it owns and
// what it measured.
type oltpClient struct {
	db     *crowddb.DB
	stream *keyedStream
	model  keyedModel
	ps     *passStats
	req    int64
}

func newOLTPClient(seed int64, sys *oltpSys, c int) *oltpClient {
	stream := oltpStream(seed, c)
	return &oltpClient{db: sys.db, stream: stream, model: newKeyedModel(stream.base, int64(oltpRows/oltpClients)),
		ps: &passStats{}, req: int64(c) << 40}
}

// step issues the client's next statement and checks its answer. It
// returns the statement's record unless it failed.
func (cl *oltpClient) step(ctx context.Context, start time.Time, tr *tracer, rep *report) (opRec, bool) {
	st := cl.stream.next()
	cl.req++
	rep.attempted.Add(1)
	var res opResult
	var err error
	if tr == nil {
		res, err = libConn{db: cl.db}.do(ctx, st.sql)
	} else {
		res, err = tracedLibDo(ctx, cl.db, tr, cl.req, st.sql, st.kind, cl.ps)
	}
	if err != nil {
		rep.fail("%s: %v", st.sql, err)
		return opRec{}, false
	}
	if msg := cl.model.check(st, res, true); msg != "" {
		rep.fail("%s", msg)
	}
	ps := cl.ps
	if st.kind == opRead {
		ps.rows += int64(len(res.rows))
		ps.scanned += int64(res.scanned)
	} else {
		ps.userB += keyedRowBytes(st.key, cl.model[st.key])
	}
	return opRec{at: time.Since(start), kind: st.kind, lat: ms(res.total)}, true
}

// keyedRowBytes is the encoded size of a keyed row: the user bytes a
// write asks the store to make durable.
func keyedRowBytes(k, x int64) int64 {
	b, err := storage.EncodeRow(storage.Row{sqltypes.NewInt(k), sqltypes.NewInt(x), sqltypes.NewString(padOf(k))})
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// tracedLibDo runs one statement as separate calls into the parser, the
// optimizer (Engine.Forecast, reads only) and the engine, each under a
// span of request req.
func tracedLibDo(ctx context.Context, db *crowddb.DB, tr *tracer, req int64, sql string, kind int, ps *passStats) (opResult, error) {
	var res opResult
	eng := db.Engine()
	start := time.Now()
	root := tr.begin("request", -1, req)
	defer tr.end(root)

	sp := tr.begin("parser", root, req)
	t := time.Now()
	stmt, err := parser.Parse(sql)
	ps.parse.add(time.Since(t))
	tr.end(sp)
	if err != nil {
		return res, err
	}
	var compile time.Duration
	if kind == opRead {
		sp = tr.begin("optimizer", root, req)
		t = time.Now()
		eng.Forecast(stmt)
		compile = time.Since(t)
		ps.compile.add(compile)
		tr.end(sp)
	}
	var rows []storage.Row
	opts := crowddb.ExecOpts{CompareBudget: -1, Sink: func(r storage.Row) error {
		rows = append(rows, r)
		return nil
	}}
	sp = tr.begin("core", root, req)
	t = time.Now()
	r, err := eng.ExecStmtCtx(ctx, stmt, opts)
	ps.exec[kind].add(time.Since(t) - compile)
	tr.end(sp)
	res.total = time.Since(start)
	if err != nil {
		return res, err
	}
	res.affected, res.scanned, res.rows = r.Affected, r.Stats.RowsScanned, cells(rows)
	return res, nil
}

func runOLTP(cfg runCfg, rep *report) error {
	if !cfg.trace {
		return runRounds(cfg, rep, func(i int) (map[string]float64, error) {
			sys, setup, err := setupCPU(func() (*oltpSys, error) { return openOLTP(cfg, i) })
			if err != nil {
				return nil, err
			}
			defer sys.close()
			ps := oltpPass(cfg, sys, nil, rep)
			if i == 0 {
				describeKinds(ps.tl, opNames)
				if err := companionCrowd(context.Background(), libConn{db: sys.db}, sys.db.Engine(), sys.conf, rep); err != nil {
					return nil, err
				}
			}
			m := passMetrics(ps.tl, oltpUnit, ps.use)
			m["setup_s"] = setup
			return m, nil
		})
	}

	// Traced run: an untraced pass on one fresh system for the overhead
	// baseline, then the traced pass on another.
	base, err := openOLTP(cfg, 0)
	if err != nil {
		return err
	}
	untraced := oltpPass(cfg, base, nil, rep)
	base.close()
	setWall(rep, passMetrics(untraced.tl, oltpUnit, untraced.use))
	sys, err := openOLTP(cfg, 1)
	if err != nil {
		return err
	}
	defer sys.close()
	tr := newTracer()
	reg := sys.db.Engine().Metrics()
	before, err := scrape(reg)
	if err != nil {
		return err
	}
	walBefore := dirBytes(sys.dir, "wal-")
	ps := oltpPass(cfg, sys, tr, rep)
	after, err := scrape(reg)
	if err != nil {
		return err
	}
	registryLayers(after, before, int64(len(ps.tl)), ps.writes(), rep)
	if ps.userB > 0 {
		rep.set("storage.wal_bytes_per_user_byte", float64(dirBytes(sys.dir, "wal-")-walBefore)/float64(ps.userB))
	}
	rep.set("parser.parse_us", 1000*ps.parse.pct(0.5))
	rep.set("parser.parse_share", ps.parse.sum()/ps.tl.samples().sum())
	rep.set("optimizer.compile_us", 1000*ps.compile.pct(0.5))
	for k, n := range opNames {
		rep.set("core.exec_stmt_us."+n, 1000*ps.exec[k].pct(0.5))
	}
	if ps.rows > 0 {
		rep.set("exec.rows_scanned_per_row_out", float64(ps.scanned)/float64(ps.rows))
	}
	rep.set("trace.overhead_ratio", median(untraced.tl.opsPerSec(oltpUnit))/median(ps.tl.opsPerSec(oltpUnit)))
	ratio, err := tracingRatio(cfg.seed)
	if err != nil {
		return err
	}
	rep.set("obs.engine_tracing_ratio", ratio)
	if err := storageProbe(filepath.Join(cfg.work, "probe-store"), keyedRows(oltpRows), rep); err != nil {
		return err
	}
	if err := setSelfTimes(cfg, rep, tr, len(ps.tl)); err != nil {
		return err
	}
	zeroLayers(rep)
	return nil
}

// keyedRows builds the rows of a keyed table of n keys.
func keyedRows(n int) []storage.Row {
	rows := make([]storage.Row, n)
	for k := range rows {
		rows[k] = storage.Row{sqltypes.NewInt(int64(k)), sqltypes.NewInt(initialX(int64(k))), sqltypes.NewString(padOf(int64(k)))}
	}
	return rows
}

// dirBytes sums the sizes of the files under dir whose names start with
// prefix.
func dirBytes(dir, prefix string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a vanished file counts 0
		if err == nil && !fi.IsDir() && strings.HasPrefix(fi.Name(), prefix) {
			n += fi.Size()
		}
		return nil
	})
	return n
}
