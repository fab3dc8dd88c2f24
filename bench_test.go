package crowddb

// One testing.B benchmark per reproduced paper exhibit (DESIGN.md §4,
// EXPERIMENTS.md). Each iteration runs the full experiment in virtual
// time, so wall-clock numbers measure the simulation+engine cost while
// the printed tables (go run ./cmd/crowdbench) carry the paper-shaped
// results. A few engine micro-benchmarks follow.
import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowddb/internal/bench"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func benchExperiment(b *testing.B, run func(seed int64) *bench.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := run(int64(i + 1))
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1CompletionVsReward(b *testing.B) { benchExperiment(b, bench.E1CompletionVsReward) }
func BenchmarkE2TurnaroundVsBatch(b *testing.B)  { benchExperiment(b, bench.E2TurnaroundVsBatch) }
func BenchmarkE3WorkerAffinity(b *testing.B)     { benchExperiment(b, bench.E3WorkerAffinity) }
func BenchmarkE4MajorityVote(b *testing.B)       { benchExperiment(b, bench.E4MajorityVote) }
func BenchmarkE5CrowdProbe(b *testing.B)         { benchExperiment(b, bench.E5CrowdProbe) }
func BenchmarkE6CrowdJoin(b *testing.B)          { benchExperiment(b, bench.E6CrowdJoin) }
func BenchmarkE7EntityResolution(b *testing.B)   { benchExperiment(b, bench.E7EntityResolution) }
func BenchmarkE8CrowdOrder(b *testing.B)         { benchExperiment(b, bench.E8CrowdOrder) }
func BenchmarkE9UIGeneration(b *testing.B)       { benchExperiment(b, bench.E9UIGeneration) }
func BenchmarkE10OptimizerRules(b *testing.B)    { benchExperiment(b, bench.E10OptimizerRules) }
func BenchmarkE11Boundedness(b *testing.B)       { benchExperiment(b, bench.E11Boundedness) }
func BenchmarkE12MobileVsAMT(b *testing.B)       { benchExperiment(b, bench.E12MobileVsAMT) }
func BenchmarkE13Diurnal(b *testing.B)           { benchExperiment(b, bench.E13Diurnal) }
func BenchmarkE14VotePolicy(b *testing.B)        { benchExperiment(b, bench.E14VotePolicy) }
func BenchmarkE15AsyncScheduler(b *testing.B)    { benchExperiment(b, bench.E15AsyncScheduler) }
func BenchmarkE16ConcurrentSessions(b *testing.B) {
	benchExperiment(b, bench.E16ConcurrentSessions)
}
func BenchmarkE18StorageThroughput(b *testing.B) {
	benchExperiment(b, bench.E18StorageThroughput)
}
func BenchmarkE22QuorumStreaming(b *testing.B) {
	benchExperiment(b, bench.E22QuorumStreaming)
}

// --- engine micro-benchmarks (no crowd: the relational substrate) ---

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER )`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		sql := fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%04d', 'Room %d', %d)", i, i%10, i%300)
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkEnginePointLookup(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT nb_attendees FROM Talk WHERE title = 'talk-%04d'", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineUpdateByPK measures a keyed UPDATE on a 20k-row table:
// the WHERE pins the primary key, so the statement reads one candidate
// row through the PK access path instead of scanning the table.
func BenchmarkEngineUpdateByPK(b *testing.B) {
	const rows = 20000
	db := benchDB(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(fmt.Sprintf("UPDATE Talk SET nb_attendees = %d WHERE title = 'talk-%04d'", i, i%rows))
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != 1 {
			b.Fatalf("affected %d rows, want 1", res.Affected)
		}
	}
}

func BenchmarkEngineScanFilter(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT title FROM Talk WHERE nb_attendees > 150"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineAggregate(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk GROUP BY room"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchPipeline(b *testing.B) {
	// The vectorized executor's bread-and-butter shape: scan → filter →
	// project → sort → limit, rows flowing between operators in batches.
	db := benchDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 50 ORDER BY nb_attendees DESC LIMIT 10"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFactDB loads a 50k-row fact table (the analytical shape: a
// primary key, a 20-value dimension, an amount and a quantity) through
// multi-row INSERTs, from a fixed seed.
func benchFactDB(b *testing.B) *DB {
	b.Helper()
	const rows, perStmt = 50000, 500
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE fact (id INTEGER PRIMARY KEY, dim INTEGER, amount INTEGER, qty INTEGER, tag STRING)"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for lo := 0; lo < rows; lo += perStmt {
		sb.Reset()
		sb.WriteString("INSERT INTO fact VALUES ")
		for i := lo; i < lo+perStmt; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d, 'tag-%02d')", i, rng.Intn(20), rng.Intn(3000), rng.Intn(10), i%50)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchQuery runs one query per iteration and checks its row count.
func benchQuery(b *testing.B, db *DB, sql string, wantRows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if wantRows >= 0 && len(res.Rows) != wantRows {
			b.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
		}
	}
}

// BenchmarkScanFilter50k scans 50k rows and keeps about a third: the
// storage snapshot, the pushed filter and the projection.
func BenchmarkScanFilter50k(b *testing.B) {
	benchQuery(b, benchFactDB(b), "SELECT id, amount FROM fact WHERE amount >= 1000 AND amount < 2000", -1)
}

// BenchmarkTopK50k orders about 47.5k rows under a LIMIT 10: the sort
// keeps only ten.
func BenchmarkTopK50k(b *testing.B) {
	benchQuery(b, benchFactDB(b), "SELECT id, amount FROM fact WHERE dim <> 3 ORDER BY amount DESC, id LIMIT 10", 10)
}

// BenchmarkGroupBy50k folds about 40k rows into 20 groups.
func BenchmarkGroupBy50k(b *testing.B) {
	benchQuery(b, benchFactDB(b), "SELECT dim, COUNT(*), SUM(qty) FROM fact WHERE qty >= 2 GROUP BY dim", 20)
}

func BenchmarkEngineInsert(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v STRING)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'value-%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrowdProbeQuery(b *testing.B) {
	// Full crowd path: one probe query per iteration against a fresh talk.
	conf := workload.NewConference(2000, 1)
	db, err := Open(Config{
		Platform: NewAMTPlatform(1),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Exec(`CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	for _, talk := range conf.Talks {
		db.Exec("INSERT INTO Talk (title) VALUES (" + sqltypes.NewString(talk.Title).SQLLiteral() + ")")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		talk := conf.Talks[i%len(conf.Talks)]
		if _, err := db.Query("SELECT abstract FROM Talk WHERE title = " +
			sqltypes.NewString(talk.Title).SQLLiteral()); err != nil {
			b.Fatal(err)
		}
	}
}
