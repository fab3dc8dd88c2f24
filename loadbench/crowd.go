package main

// crowd_durable: a durable server (data directory plus jobs journal, as
// crowddbd runs with -data), simulated AMT with the sharp model tier
// routed first (crowddbd's -model-tier sharp) and a comparison cache
// capped below the run's distinct comparisons (-cache-cap), so eviction
// and read-through to the persisted answers happen. One client, so crowd
// counts are deterministic per seed. The mix: CrowdProbe of CNULL
// columns on Zipf-chosen talks (repeats are served from stored answers),
// CROWDEQUAL over overlapping windows of company pairs, CROWDORDER over
// 10–20-talk slices, and a small share of CrowdJoin. The task manager,
// platforms, quality control, the comparison cache, the job lifecycle
// and the per-row journal do the work; machine execution is trivial.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/model"
	"crowddb/internal/exec"
	"crowddb/internal/server"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

const (
	crowdTalks     = 400
	crowdCompanies = 48 // two pairs each: one true match, one non-match
	pairWindow     = 8
	// crowdCacheCap keeps the comparison cache smaller than the distinct
	// comparisons of a run.
	crowdCacheCap = 64
	// crowdRoundJobs is the size of a pass: a fixed prefix of the
	// stream. Stored answers and the cache warm as a pass goes on, so a
	// timed window would mix warm and cold jobs in proportions that
	// depend on the machine's speed; a fixed job count keeps the crowd
	// cost exact per seed and the mix of work the same in every round.
	crowdRoundJobs = 2000
	crowdProbeJobs = 40
	orderQuestion  = "Which talk did you like better?"
)

// crowdOracle is the benchmark's ground truth: the conference dataset
// answers probes, new tuples and talk comparisons, the companies dataset
// answers entity-resolution comparisons.
type crowdOracle struct {
	conf, companies taskmgr.Oracle
}

func (o crowdOracle) ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	return o.conf.ProbeTruth(table, known, ask)
}

func (o crowdOracle) NewTupleTruth(table string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
	return o.conf.NewTupleTruth(table, prefill, i)
}

func (o crowdOracle) CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
	if kind == crowd.TaskCompareEqual {
		return o.companies.CompareTruth(kind, question, left, right)
	}
	return o.conf.CompareTruth(kind, question, left, right)
}

// crowdData is the generated dataset and its truth.
type crowdData struct {
	conf  *workload.Conference
	comps *workload.Companies
	pairs [][2]string
	match []bool // truth of pairs[i]
	pref  map[string]float64
}

func newCrowdData(seed int64) *crowdData {
	d := &crowdData{
		conf:  workload.NewConference(crowdTalks, seed),
		comps: workload.NewCompanies(crowdCompanies, seed),
		pref:  map[string]float64{},
	}
	n := len(d.comps.List)
	for i, c := range d.comps.List {
		other := d.comps.List[(i+1)%n]
		for _, p := range [][2]string{{c.Canonical, c.Variants[len(c.Variants)-1]}, {c.Canonical, other.Variants[0]}} {
			d.pairs = append(d.pairs, p)
			lc, rc := d.comps.CanonicalOf(p[0]), d.comps.CanonicalOf(p[1])
			d.match = append(d.match, lc != "" && lc == rc)
		}
	}
	for _, t := range d.conf.Talks {
		d.pref[t.Title] = t.Preference
	}
	return d
}

func (d *crowdData) load() []string {
	stmts := []string{
		talkDDL,
		talkLoad(d.conf.Talks),
		`CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, FOREIGN KEY (title) REF Talk(title))`,
		`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`,
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO Pair VALUES ")
	for i, p := range d.pairs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %s, %s)", i, lit(p[0]), lit(p[1]))
	}
	return append(stmts, sb.String())
}

func (d *crowdData) talkRows() []storage.Row {
	out := make([]storage.Row, len(d.conf.Talks))
	for i, t := range d.conf.Talks {
		out[i] = storage.Row{sqltypes.NewString(t.Title), sqltypes.NewInt(int64(i)), sqltypes.NewString(t.Abstract), sqltypes.NewInt(int64(t.NbAttendees))}
	}
	return out
}

// Crowd job kinds and their shares in every block of 20 jobs.
const (
	jobProbe = iota
	jobEqual
	jobOrder
	jobJoin
)

var (
	crowdWeights = []int{12, 4, 3, 1}
	jobNames     = []string{"probe", "equal", "order", "join"}
)

type crowdStream struct {
	rng    *rand.Rand
	mix    *mixer
	talks  *hotKeys // probe and join targets
	slices *hotKeys // CROWDORDER slice starts
	data   *crowdData
}

func newCrowdStream(seed int64, data *crowdData) *crowdStream {
	rng := streamRNG(seed, "crowd", 0)
	return &crowdStream{rng: rng, mix: newMixer(rng, crowdWeights...), talks: newHotKeys(rng, crowdTalks),
		slices: newHotKeys(rng, crowdTalks-20), data: data}
}

func (s *crowdStream) blocks() *mixer { return s.mix }

func (s *crowdStream) next() job {
	d := s.data
	kind := s.mix.next()
	switch kind {
	case jobEqual:
		lo := s.rng.Intn(len(d.pairs) - pairWindow + 1)
		return job{
			sql:   fmt.Sprintf("SELECT id FROM Pair WHERE id >= %d AND id < %d AND a ~= b", lo, lo+pairWindow),
			check: d.checkEqual(lo, lo+pairWindow),
			kind:  kind,
		}
	case jobOrder:
		lo, w := s.slices.next(), 10+s.rng.Intn(11)
		return job{
			sql:   fmt.Sprintf("SELECT title FROM Talk WHERE seq >= %d AND seq < %d ORDER BY CROWDORDER(title, %s)", lo, lo+w, lit(orderQuestion)),
			check: d.checkOrder(lo, lo+w),
			kind:  kind,
		}
	case jobJoin:
		t := d.conf.Talks[s.talks.next()]
		return job{
			sql:   "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.title = " + lit(t.Title),
			check: d.checkJoin(t.Title),
			kind:  kind,
		}
	default:
		t := d.conf.Talks[s.talks.next()]
		return job{kind: kind, sql: probeSQL(t.Title), check: func(res opResult) (int, int, string) { return scoreProbe(res, t) }}
	}
}

func (d *crowdData) checkEqual(lo, hi int) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		in := map[int64]bool{}
		for _, row := range res.rows {
			id := atoi(row[0])
			if id < int64(lo) || id >= int64(hi) || in[id] {
				return 0, 0, fmt.Sprintf("CROWDEQUAL [%d,%d): unexpected id %s", lo, hi, row[0])
			}
			in[id] = true
		}
		right := 0
		for id := lo; id < hi; id++ {
			if in[int64(id)] == d.match[id] {
				right++
			}
		}
		return right, hi - lo, ""
	}
}

func (d *crowdData) checkOrder(lo, hi int) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		if len(res.rows) != hi-lo {
			return 0, 0, fmt.Sprintf("CROWDORDER [%d,%d): %d rows", lo, hi, len(res.rows))
		}
		seen := map[string]bool{}
		for _, row := range res.rows {
			if _, ok := d.pref[row[0]]; !ok || seen[row[0]] || d.seqOf(row[0]) < lo || d.seqOf(row[0]) >= hi {
				return 0, 0, fmt.Sprintf("CROWDORDER [%d,%d): unexpected title %q", lo, hi, row[0])
			}
			seen[row[0]] = true
		}
		// The ranking is best first: each adjacent pair the crowd ordered
		// is one decided value.
		right := 0
		for i := 1; i < len(res.rows); i++ {
			if d.pref[res.rows[i-1][0]] > d.pref[res.rows[i][0]] {
				right++
			}
		}
		return right, len(res.rows) - 1, ""
	}
}

func (d *crowdData) seqOf(title string) int {
	for i, t := range d.conf.Talks {
		if t.Title == title {
			return i
		}
	}
	return -1
}

func (d *crowdData) checkJoin(title string) func(opResult) (int, int, string) {
	return func(res opResult) (int, int, string) {
		right := 0
		for _, row := range res.rows {
			if row[0] != title {
				return 0, 0, fmt.Sprintf("CrowdJoin %q: row %v", title, row)
			}
			for _, n := range d.conf.Notable[title] {
				if row[1] == n {
					right++
					break
				}
			}
		}
		return right, len(res.rows), ""
	}
}

type crowdSys struct {
	dir   string
	db    *crowddb.DB
	front *httpFront
	taps  *crowdTaps
}

func (s *crowdSys) close() {
	s.front.stop() //nolint:errcheck // teardown after the measurement
	s.db.Close()
	os.RemoveAll(s.dir)
}

// openCrowd builds the system crowddbd runs with
// -data <dir> -model-tier sharp -cache-cap 64. taps, when set, decorates
// both platforms and the oracle.
func openCrowd(cfg runCfg, data *crowdData, i int, taps *crowdTaps) (*crowdSys, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("crowd-%d", i))
	prof := model.Sharp()
	tasks := taskmgr.Config{
		ModelPlatform:    taps.wrapPlatform(model.New(model.Config{Seed: cfg.seed, Profile: prof})),
		ModelReward:      prof.CostPerCall,
		ModelAssignments: 1,
		ConfidenceFloor:  0.75,
		AgreementFloor:   0.66,
		ModelVoteWeight:  0.6,
	}
	db, err := crowddb.Open(crowddb.Config{
		DataDir:         dir,
		Platform:        taps.wrapPlatform(amt.NewDefault(cfg.seed)),
		Oracle:          taps.wrapOracle(crowdOracle{conf: data.conf.Oracle(), companies: data.comps.Oracle()}),
		Payment:         wrm.DefaultPolicy(),
		CompareCacheCap: crowdCacheCap,
		Tasks:           tasks,
	})
	if err != nil {
		return nil, err
	}
	for _, sql := range data.load() {
		if _, err := db.Exec(sql); err != nil {
			db.Close()
			return nil, fmt.Errorf("crowd setup: %w", err)
		}
	}
	srv := server.New(db.Engine(), server.Config{})
	if err := srv.EnableJournal(filepath.Join(dir, "jobs.log"), storage.SyncGroup); err != nil {
		db.Close()
		return nil, err
	}
	front, err := startHTTP(srv)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &crowdSys{dir: dir, db: db, front: front, taps: taps}, nil
}

// crowdCost is the deterministic crowd outcome of a pass.
type crowdCost struct {
	cents, vsec, accuracy float64
}

// crowdPass runs the first jobs jobs of the stream and takes the crowd
// cost over them.
func crowdPass(cfg runCfg, sys *crowdSys, data *crowdData, jobs int, tr *tracer, rep *report) (*httpPassStats, crowdCost) {
	eng := sys.db.Engine()
	before := eng.Tasks().Stats()
	ps := httpPass(jobs, sys.front.conn, eng, newCrowdStream(cfg.seed, data), tr, sys.taps, rep)
	after := eng.Tasks().Stats()
	right, decided := 0, 0
	for i := range ps.right {
		right += ps.right[i]
		decided += ps.decided[i]
	}
	return ps, crowdCost{
		cents:    float64(after.ApprovedSpend-before.ApprovedSpend) / float64(jobs),
		vsec:     (after.CrowdTime - before.CrowdTime).Seconds() / float64(jobs),
		accuracy: float64(right) / float64(max(decided, 1)),
	}
}

func runCrowd(cfg runCfg, rep *report) error {
	data := newCrowdData(cfg.seed)
	ctx := context.Background()
	if !cfg.trace {
		return crowdRounds(cfg, data, rep)
	}

	// Untraced pass without decorators, then the traced pass with them:
	// the crowd outcome must not move.
	base, err := openCrowd(cfg, data, 0, nil)
	if err != nil {
		return err
	}
	untraced, baseCost := crowdPass(cfg, base, data, crowdRoundJobs, nil, rep)
	base.close()
	setWall(rep, passMetrics(untraced.tl, untraced.unit, untraced.use))
	tr := newTracer()
	sys, err := openCrowd(cfg, data, 1, newCrowdTaps(tr))
	if err != nil {
		return err
	}
	defer sys.close()
	eng := sys.db.Engine()
	regBefore, err := scrape(eng.Metrics())
	if err != nil {
		return err
	}
	tmBefore, cacheBefore := eng.Tasks().Stats(), eng.CacheStats()
	journalBefore := dirBytes(sys.dir, "jobs.log")
	ps, cost := crowdPass(cfg, sys, data, crowdRoundJobs, tr, rep)
	if cost != baseCost {
		rep.fail("crowd outcome moved with the decorators on: %+v vs %+v", cost, baseCost)
	}
	tm, cache := eng.Tasks().Stats(), eng.CacheStats()
	regAfter, err := scrape(eng.Metrics())
	if err != nil {
		return err
	}
	jobs := float64(ps.jobs())
	rep.set("server.journal_bytes_per_job", float64(dirBytes(sys.dir, "jobs.log")-journalBefore)/jobs)
	registryLayers(regAfter, regBefore, ps.jobs(), ps.jobs(), rep)
	rep.set("trace.overhead_ratio", untraced.jobsPerSec()/ps.jobsPerSec())
	crowdLayers(tmBefore, tm, cacheBefore, cache, sys.taps, ps, rep)
	if err := serverLayers(ctx, eng, tr, ps, crowdProbeJobs, rep); err != nil {
		return err
	}
	if err := storageProbe(filepath.Join(cfg.work, "probe-store"), data.talkRows(), rep); err != nil {
		return err
	}
	if err := setSelfTimes(cfg, rep, tr, int(ps.jobs())); err != nil {
		return err
	}
	zeroLayers(rep)
	return nil
}

// crowdRounds is the plain run. The crowd cost must come out the same
// in every round.
func crowdRounds(cfg runCfg, data *crowdData, rep *report) error {
	var cost0 crowdCost
	err := runRounds(cfg, rep, func(i int) (map[string]float64, error) {
		sys, setup, err := setupCPU(func() (*crowdSys, error) { return openCrowd(cfg, data, i, nil) })
		if err != nil {
			return nil, err
		}
		defer sys.close()
		ps, cost := crowdPass(cfg, sys, data, crowdRoundJobs, nil, rep)
		if i == 0 {
			cost0 = cost
			describeKinds(ps.tl, jobNames)
		} else if cost != cost0 {
			rep.fail("round %d: crowd outcome %+v, round 0 had %+v", i, cost, cost0)
		}
		m := passMetrics(ps.tl, ps.unit, ps.use)
		m["setup_s"] = setup
		return m, nil
	})
	rep.set("cents_per_query", cost0.cents)
	rep.set("crowd_vsec_per_query", cost0.vsec)
	rep.set("answer_accuracy", cost0.accuracy)
	return err
}

// crowdLayers reports the task manager, cache, platform and simulator
// figures of a traced crowd pass, per job where a count grows with the
// number of jobs.
func crowdLayers(b, a taskmgr.Stats, cb, ca exec.CacheStats, taps *crowdTaps, ps *httpPassStats, rep *report) {
	jobs := float64(ps.jobs())
	rep.set("taskmgr.groups_per_query", float64(a.GroupsPosted-b.GroupsPosted)/jobs)
	rep.set("taskmgr.hits_per_query", float64(a.HITsPosted-b.HITsPosted)/jobs)
	rep.set("taskmgr.assignments_per_query", float64(a.AssignmentsIn-b.AssignmentsIn)/jobs)
	rep.set("taskmgr.retries", float64(a.Retries-b.Retries))
	rep.set("taskmgr.peak_in_flight", float64(a.PeakInFlight))
	rep.set("taskmgr.group_roundtrip_p50_vsec", a.GroupLatencyP50.Seconds())
	if hits := a.ByPlatform["model"].HITs - b.ByPlatform["model"].HITs; hits > 0 {
		rep.set("taskmgr.escalation_ratio", float64(a.EscalatedHITs-b.EscalatedHITs)/float64(hits))
	}
	hits, misses, shared := ca.Hits-cb.Hits, ca.Misses-cb.Misses, ca.Shared-cb.Shared
	if hits+misses+shared > 0 {
		rep.set("cache.hit_ratio", float64(hits+shared)/float64(hits+misses+shared))
	}
	rep.set("cache.evictions", float64(ca.Evictions-cb.Evictions))

	var posts, polls int64
	var simMS float64
	for name, st := range taps.platforms {
		st.mu.Lock()
		for _, m := range platformMethods {
			rep.set("crowd."+name+"."+m+".calls_per_job", float64(st.calls[m])/jobs)
			rep.set("crowd."+name+"."+m+".ms_per_job", float64(st.wall[m].Microseconds())/1000/jobs)
		}
		posts += st.calls["post"]
		polls += st.calls["status"]
		st.mu.Unlock()
		_, wall := st.total()
		simMS += float64(wall.Microseconds()) / 1000
	}
	if posts > 0 {
		rep.set("crowd.status_polls_per_group", float64(polls)/float64(posts))
	}
	_, oracleWall := taps.oracle.total()
	oracleMS := float64(oracleWall.Microseconds()) / 1000
	rep.set("sim.platform_ms", simMS/jobs)
	rep.set("sim.oracle_ms", oracleMS/jobs)
	rep.set("crowd.program_ms", (ps.tl.samples().sum()-simMS-oracleMS)/jobs)
}
