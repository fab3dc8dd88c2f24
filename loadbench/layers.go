package main

// Per-layer probes that are not spans: deltas of the engine's obs
// registry, a benchmark-owned storage.Store holding the workload's rows,
// the tracing on/off ratio, and the companion phase that measures crowd
// cost and accuracy on a machine workload's own system.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"crowddb"
	"crowddb/internal/core"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// registryLayers turns registry deltas over a traced pass into exec,
// WAL and MVCC layer metrics. requests normalizes per-request figures;
// writes normalizes fsyncs.
func registryLayers(after, before regSnapshot, requests, writes int64, rep *report) {
	d := after.diff(before)
	wall := map[string]float64{}
	for op, secs := range d.byLabel("crowddb_exec_op_wall_seconds_total", "op") {
		fam := strings.SplitN(op, ":", 2)[0]
		if !slices.Contains(execOps, fam) {
			fam = "other"
		}
		wall[fam] += secs
	}
	for _, fam := range execOps {
		rep.set("exec.op_wall_ms."+fam, 1000*wall[fam]/float64(max(requests, 1)))
	}
	if b := d.family("crowddb_exec_op_batches_total"); b > 0 {
		rep.set("exec.rows_per_batch", d.family("crowddb_exec_op_rows_total")/b)
	}
	if n := d.family("crowddb_wal_fsync_seconds_count"); n > 0 {
		rep.set("storage.wal_fsync_ms", 1000*d.family("crowddb_wal_fsync_seconds_sum")/n)
		if writes > 0 {
			rep.set("storage.wal_fsyncs_per_write", n/float64(writes))
		}
	}
	if n := d.family("crowddb_wal_fsync_batch_rows_count"); n > 0 {
		rep.set("storage.wal_rows_per_fsync", d.family("crowddb_wal_fsync_batch_rows_sum")/n)
	}
	rep.set("storage.mvcc_retained_versions", after.family("crowddb_mvcc_retained_versions"))
	rep.set("storage.gc_reclaimed", d.family("crowddb_mvcc_gc_reclaimed_versions_total"))
}

// storageProbe loads rows into a benchmark-owned store, durable with
// group commit (the engine default) when dir is set and in memory
// otherwise, and times the storage layer alone: PK lookups, full scans
// per row, and single-row transaction commits.
func storageProbe(dir string, rows []storage.Row, rep *report) error {
	st, err := storage.NewStoreOptions(dir, storage.Options{Sync: storage.SyncGroup})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.CreateTable("t", []int{0}); err != nil {
		return err
	}
	tx := st.Begin()
	for i, r := range rows {
		if _, err := tx.Insert("t", r); err != nil {
			return fmt.Errorf("storage probe load: %w", err)
		}
		if (i+1)%loadBatch == 0 {
			tx.Commit()
			tx = st.Begin()
		}
	}
	tx.Commit()

	rng := rand.New(rand.NewSource(int64(len(rows))))
	var lookups samples
	for i := 0; i < 4000; i++ {
		key := rows[rng.Intn(len(rows))][0]
		t := time.Now()
		_, _, ok := st.LookupPKRow("t", key)
		lookups.add(time.Since(t))
		if !ok {
			return fmt.Errorf("storage probe: key %v missing", key)
		}
	}
	rep.set("storage.lookup_pk_us", 1000*lookups.pct(0.5))

	var scans []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		_, got, err := st.ScanRows("t")
		el := time.Since(t)
		if err != nil {
			return err
		}
		if len(got) != len(rows) {
			return fmt.Errorf("storage probe: scan saw %d of %d rows", len(got), len(rows))
		}
		scans = append(scans, float64(el.Nanoseconds())/float64(len(rows)))
	}
	rep.set("storage.scan_ns_per_row", median(scans))

	var commits samples
	template := rows[0]
	for i := 0; i < 300; i++ {
		r := append(storage.Row(nil), template...)
		r[0] = newKeyValue(template[0], i)
		t := time.Now()
		tx := st.Begin()
		if _, err := tx.Insert("t", r); err != nil {
			return fmt.Errorf("storage probe commit: %w", err)
		}
		tx.Commit()
		commits.add(time.Since(t))
	}
	rep.set("storage.commit_us", 1000*commits.pct(0.5))
	return nil
}

// tracingRatio measures the engine's always-on tracing cost on point
// reads: two in-memory engines hold the same keyed table, one with the
// default configuration and one with DisableObservability, and they
// alternate blocks of reads so drift affects both alike.
func tracingRatio(seed int64) (float64, error) {
	var dbs [2]*crowddb.DB
	for i := range dbs {
		db, err := crowddb.Open(crowddb.Config{DisableObservability: i == 1})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		for _, sql := range append([]string{keyedDDL("acct")}, keyedLoad("acct", oltpRows, loadBatch)...) {
			if _, err := db.Exec(sql); err != nil {
				return 0, err
			}
		}
		dbs[i] = db
	}
	rng := rand.New(rand.NewSource(seed))
	var lat [2]samples
	ctx := context.Background()
	for block := 0; block < 8; block++ {
		db := dbs[block%2]
		for i := 0; i < 1000; i++ {
			k := rng.Intn(oltpRows)
			t := time.Now()
			res, err := db.Execute(ctx, fmt.Sprintf("SELECT k, x, pad FROM acct WHERE k = %d", k))
			lat[block%2].add(time.Since(t))
			if err != nil {
				return 0, err
			}
			if len(res.Rows) != 1 {
				return 0, fmt.Errorf("tracing probe: key %d returned %d rows", k, len(res.Rows))
			}
		}
	}
	return lat[0].pct(0.5) / lat[1].pct(0.5), nil
}

// Talk is the conference table CrowdProbe fills: title is known, the
// abstract and the attendance are CNULL until the crowd answers.
const talkDDL = `CREATE TABLE Talk (title STRING PRIMARY KEY, seq INTEGER, abstract CROWD STRING, nb_attendees CROWD INTEGER)`

func talkLoad(talks []workload.TalkInfo) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO Talk (title, seq) VALUES ")
	for i, t := range talks {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%s, %d)", lit(t.Title), i)
	}
	return sb.String()
}

func probeSQL(title string) string {
	return "SELECT title, abstract, nb_attendees FROM Talk WHERE title = " + lit(title)
}

// scoreProbe checks a probe's shape and scores its two crowd-decided
// values against the truth. It returns (values correct, values, problem).
func scoreProbe(res opResult, t workload.TalkInfo) (int, int, string) {
	if len(res.rows) != 1 || len(res.rows[0]) != 3 || res.rows[0][0] != t.Title {
		return 0, 0, fmt.Sprintf("probe %q returned %v", t.Title, res.rows)
	}
	ok := 0
	if res.rows[0][1] == t.Abstract {
		ok++
	}
	if res.rows[0][2] == fmt.Sprint(t.NbAttendees) {
		ok++
	}
	return ok, 2, ""
}

// companionCrowd runs after a machine workload's measured loop: it
// probes every talk of the companion Talk table once, through the
// workload's own front door, and reports the crowd cost and accuracy of
// a fresh CrowdProbe on that system.
func companionCrowd(ctx context.Context, c conn, eng *core.Engine, conf *workload.Conference, rep *report) error {
	runtime.GC()
	start := time.Now()
	before := eng.Tasks().Stats()
	correct, decided := 0, 0
	for _, t := range conf.Talks {
		rep.attempted.Add(1)
		res, err := c.do(ctx, probeSQL(t.Title))
		if err != nil {
			rep.fail("companion probe %q: %v", t.Title, err)
			continue
		}
		ok, n, problem := scoreProbe(res, t)
		if problem != "" {
			rep.fail("%s", problem)
		}
		correct += ok
		decided += n
	}
	after := eng.Tasks().Stats()
	n := float64(len(conf.Talks))
	rep.set("cents_per_query", float64(after.ApprovedSpend-before.ApprovedSpend)/n)
	rep.set("crowd_vsec_per_query", (after.CrowdTime-before.CrowdTime).Seconds()/n)
	if decided > 0 {
		rep.set("answer_accuracy", float64(correct)/float64(decided))
	}
	fmt.Printf("# companion probes: %d in %.2f s\n", len(conf.Talks), time.Since(start).Seconds())
	return nil
}

// newKeyValue derives the i-th fresh primary key of the key's type.
func newKeyValue(v sqltypes.Value, i int) sqltypes.Value {
	if v.Kind() == sqltypes.KindInt {
		return sqltypes.NewInt(1<<40 + int64(i))
	}
	return sqltypes.NewString(fmt.Sprintf("%s/new-%d", v.Str(), i))
}
