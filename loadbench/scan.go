package main

// scan_http: crowddbd's default in-memory configuration (no data
// directory, no jobs journal) driven over loopback HTTP through
// pkg/client by one closed-loop client. A ~50k-row fact table and a
// 20-row dimension table; four query shapes in equal shares: scan+filter
// returning about a third of the rows, GROUP BY, ORDER BY … LIMIT 10,
// and a fact⋈dimension join. Executor operators, storage scans and
// NDJSON encoding do nearly all the work; parse and compile are a
// fraction of a percent.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"crowddb"
	"crowddb/internal/server"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	factRows = 50000
	dimRows  = 20
	regions  = 4
)

type factRow struct{ id, dim, amount, qty int64 }

// scanData is the generated fact table; the checks recompute every
// answer from it.
type scanData []factRow

func newScanData(seed int64) scanData {
	rng := streamRNG(seed, "scan-data", 0)
	d := make(scanData, factRows)
	for i := range d {
		d[i] = factRow{id: int64(i), dim: int64(rng.Intn(dimRows)), amount: int64(rng.Intn(3000)), qty: int64(rng.Intn(10))}
	}
	return d
}

func (d scanData) load() []string {
	stmts := []string{
		"CREATE TABLE fact (id INTEGER PRIMARY KEY, dim INTEGER, amount INTEGER, qty INTEGER, tag STRING)",
		"CREATE TABLE dim (id INTEGER PRIMARY KEY, name STRING, region STRING)",
	}
	sql := "INSERT INTO dim VALUES "
	for i := 0; i < dimRows; i++ {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("(%d, 'dim-%02d', 'r%d')", i, i, i%regions)
	}
	stmts = append(stmts, sql)
	for lo := 0; lo < len(d); lo += loadBatch {
		sql := "INSERT INTO fact VALUES "
		for i := lo; i < lo+loadBatch && i < len(d); i++ {
			r := d[i]
			if i > lo {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, %d, %d, 'tag-%02d')", r.id, r.dim, r.amount, r.qty, r.id%50)
		}
		stmts = append(stmts, sql)
	}
	return stmts
}

func (d scanData) rows() []storage.Row {
	out := make([]storage.Row, len(d))
	for i, r := range d {
		out[i] = storage.Row{sqltypes.NewInt(r.id), sqltypes.NewInt(r.dim), sqltypes.NewInt(r.amount),
			sqltypes.NewInt(r.qty), sqltypes.NewString(fmt.Sprintf("tag-%02d", r.id%50))}
	}
	return out
}

// Query shapes.
const (
	shapeFilter = iota
	shapeGroup
	shapeTopK
	shapeJoin
)

var shapeNames = []string{"filter", "group", "topk", "join"}

// scanStream generates the four shapes in shuffled blocks of one each.
// The parameters that change how much work a query does, the GROUP BY's
// qty floor and the top-k's direction, cycle from a seeded start, so
// every pass of whole cycles does the same work whatever the seed.
type scanStream struct {
	rng          *rand.Rand
	mix          *mixer
	data         scanData
	groups, topk int // queries of the shape issued so far, from a seeded start
}

func newScanStream(seed int64, data scanData) *scanStream {
	rng := streamRNG(seed, "scan", 0)
	return &scanStream{rng: rng, mix: newMixer(rng, 1, 1, 1, 1), data: data, groups: rng.Intn(5), topk: rng.Intn(2)}
}

func (s *scanStream) blocks() *mixer { return s.mix }

func (s *scanStream) next() job {
	shape := s.mix.next()
	switch shape {
	case shapeFilter:
		lo := int64(s.rng.Intn(2000))
		return job{
			sql:   fmt.Sprintf("SELECT id, amount FROM fact WHERE amount >= %d AND amount < %d", lo, lo+1000),
			check: s.data.checkFilter(lo, lo+1000),
			kind:  shape,
		}
	case shapeGroup:
		q := int64(s.groups % 5)
		s.groups++
		return job{
			sql:   fmt.Sprintf("SELECT dim, COUNT(*), SUM(qty) FROM fact WHERE qty >= %d GROUP BY dim", q),
			check: s.data.checkGroup(q),
			kind:  shape,
		}
	case shapeTopK:
		d, desc := int64(s.rng.Intn(dimRows)), s.topk%2 == 0
		s.topk++
		order := "amount, id"
		if desc {
			order = "amount DESC, id"
		}
		return job{
			sql:   fmt.Sprintf("SELECT id, amount FROM fact WHERE dim <> %d ORDER BY %s LIMIT 10", d, order),
			check: s.data.checkTopK(d, desc),
			kind:  shape,
		}
	default:
		r := int64(s.rng.Intn(regions))
		return job{
			sql:   fmt.Sprintf("SELECT d.name, SUM(f.amount) FROM fact f JOIN dim d ON f.dim = d.id WHERE d.region = 'r%d' GROUP BY d.name", r),
			check: s.data.checkJoin(r),
			kind:  shape,
		}
	}
}

func atoi(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1 << 62
	}
	return v
}

func (d scanData) checkFilter(lo, hi int64) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		var n, sum, got int64
		for _, r := range d {
			if r.amount >= lo && r.amount < hi {
				n++
				sum += r.amount
			}
		}
		for _, row := range res.rows {
			got += atoi(row[1])
		}
		if int64(len(res.rows)) != n || got != sum {
			return 0, 0, fmt.Sprintf("filter [%d,%d): %d rows sum %d, want %d rows sum %d", lo, hi, len(res.rows), got, n, sum)
		}
		return 0, 0, ""
	}
}

func (d scanData) checkGroup(q int64) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		var cnt, sum [dimRows]int64
		for _, r := range d {
			if r.qty >= q {
				cnt[r.dim]++
				sum[r.dim] += r.qty
			}
		}
		if len(res.rows) != dimRows {
			return 0, 0, fmt.Sprintf("group qty>=%d: %d groups", q, len(res.rows))
		}
		for _, row := range res.rows {
			g := atoi(row[0])
			if g < 0 || g >= dimRows || atoi(row[1]) != cnt[g] || atoi(row[2]) != sum[g] {
				return 0, 0, fmt.Sprintf("group qty>=%d: row %v, want count %d sum %d", q, row, cnt[max(0, min(g, dimRows-1))], sum[max(0, min(g, dimRows-1))])
			}
		}
		return 0, 0, ""
	}
}

func (d scanData) checkTopK(dim int64, desc bool) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		var cand []factRow
		for _, r := range d {
			if r.dim != dim {
				cand = append(cand, r)
			}
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].amount != cand[j].amount {
				return (cand[i].amount > cand[j].amount) == desc
			}
			return cand[i].id < cand[j].id
		})
		if len(res.rows) != 10 {
			return 0, 0, fmt.Sprintf("top-k dim<>%d: %d rows", dim, len(res.rows))
		}
		for i, row := range res.rows {
			if atoi(row[0]) != cand[i].id || atoi(row[1]) != cand[i].amount {
				return 0, 0, fmt.Sprintf("top-k dim<>%d desc=%v: row %d is %v, want %v", dim, desc, i, row, cand[i])
			}
		}
		return 0, 0, ""
	}
}

func (d scanData) checkJoin(region int64) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		want := map[string]int64{}
		for _, r := range d {
			if r.dim%regions == region {
				want[fmt.Sprintf("dim-%02d", r.dim)] += r.amount
			}
		}
		if len(res.rows) != len(want) {
			return 0, 0, fmt.Sprintf("join r%d: %d groups, want %d", region, len(res.rows), len(want))
		}
		for _, row := range res.rows {
			if s, ok := want[row[0]]; !ok || atoi(row[1]) != s {
				return 0, 0, fmt.Sprintf("join r%d: row %v, want sum %d", region, row, s)
			}
		}
		return 0, 0, ""
	}
}

type scanSys struct {
	db    *crowddb.DB
	front *httpFront
	conf  *workload.Conference
}

func (s *scanSys) close() {
	s.front.stop() //nolint:errcheck // teardown after the measurement
	s.db.Close()
}

// openScan builds crowddbd's default in-memory system: simulated AMT,
// no data directory, no journal, default server limits.
func openScan(cfg runCfg, data scanData) (*scanSys, error) {
	conf := workload.NewConference(companionTalks, cfg.seed)
	db, err := crowddb.Open(crowddb.Config{
		Platform: crowddb.NewAMTPlatform(cfg.seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		return nil, err
	}
	stmts := append(data.load(), talkDDL, talkLoad(conf.Talks))
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			db.Close()
			return nil, fmt.Errorf("scan setup: %w", err)
		}
	}
	front, err := startHTTP(server.New(db.Engine(), server.Config{}))
	if err != nil {
		db.Close()
		return nil, err
	}
	return &scanSys{db: db, front: front, conf: conf}, nil
}

const (
	// scanJobs is the size of a pass: a fixed prefix of the stream,
	// whole blocks of the mix and whole cycles of the parameters.
	scanJobs = 40
	// scanProbeJobs bounds the library re-runs behind server.overhead_ms.
	scanProbeJobs = 40
)

func runScan(cfg runCfg, rep *report) error {
	data := newScanData(cfg.seed)
	ctx := context.Background()
	if !cfg.trace {
		return runRounds(cfg, rep, func(i int) (map[string]float64, error) {
			sys, setup, err := setupCPU(func() (*scanSys, error) { return openScan(cfg, data) })
			if err != nil {
				return nil, err
			}
			defer sys.close()
			ps := httpPass(scanJobs, sys.front.conn, sys.db.Engine(), newScanStream(cfg.seed, data), nil, nil, rep)
			if i == 0 {
				describeKinds(ps.tl, shapeNames)
				if err := companionCrowd(ctx, sys.front.conn, sys.db.Engine(), sys.conf, rep); err != nil {
					return nil, err
				}
			}
			m := passMetrics(ps.tl, ps.unit, ps.use)
			m["setup_s"] = setup
			return m, nil
		})
	}

	base, err := openScan(cfg, data)
	if err != nil {
		return err
	}
	untraced := httpPass(scanJobs, base.front.conn, base.db.Engine(), newScanStream(cfg.seed, data), nil, nil, rep)
	base.close()
	setWall(rep, passMetrics(untraced.tl, untraced.unit, untraced.use))
	sys, err := openScan(cfg, data)
	if err != nil {
		return err
	}
	defer sys.close()
	eng := sys.db.Engine()
	tr := newTracer()
	before, err := scrape(eng.Metrics())
	if err != nil {
		return err
	}
	ps := httpPass(scanJobs, sys.front.conn, eng, newScanStream(cfg.seed, data), tr, nil, rep)
	after, err := scrape(eng.Metrics())
	if err != nil {
		return err
	}
	registryLayers(after, before, ps.jobs(), 0, rep)
	rep.set("trace.overhead_ratio", untraced.jobsPerSec()/ps.jobsPerSec())
	if err := serverLayers(ctx, eng, tr, ps, scanProbeJobs, rep); err != nil {
		return err
	}
	if err := storageProbe("", data.rows(), rep); err != nil {
		return err
	}
	if err := setSelfTimes(cfg, rep, tr, int(ps.jobs())); err != nil {
		return err
	}
	zeroLayers(rep)
	return nil
}
