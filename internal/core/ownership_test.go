package core

import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// TestReadPathsLeaveStoredImagesUntouched pins the read-path ownership
// rule: the store hands readers its version images themselves, so no
// reader may write into one. It drives every read path — sequential,
// parallel and index scans, PK and index lookups, the lazy stop-after
// scan, CrowdProbe fills, CrowdJoin's inner probe, UPDATE/DELETE
// candidate fetches and IN (SELECT …) — and after each statement checks
// that the fingerprint of every version image that existed before it is
// unchanged. A pinned snapshot keeps superseded images from being
// collected, so an image a reader corrupted stays in view.
func TestReadPathsLeaveStoredImagesUntouched(t *testing.T) {
	conf := workload.NewConference(20, 7)
	oracle := conf.Oracle()
	oracle.RegisterProbe("Speaker", func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
		truth := map[string]string{}
		for _, col := range ask {
			truth[col] = "Institute of " + known["name"].Str()
		}
		return &crowd.SimTruth{Truth: truth}
	})
	eng, err := Open(Config{Platform: amt.NewDefault(7), Oracle: oracle, Payment: wrm.DefaultPolicy(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, `CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	mustExec(t, eng, `CREATE CROWD TABLE Speaker (name STRING PRIMARY KEY, title STRING, affiliation CROWD STRING)`)
	mustExec(t, eng, `CREATE TABLE Big (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)`)
	mustExec(t, eng, `CREATE INDEX big_grp ON Big (grp)`)
	for i, talk := range conf.Talks[:6] {
		title := sqltypes.NewString(talk.Title).SQLLiteral()
		mustExec(t, eng, "INSERT INTO Talk (title) VALUES ("+title+")")
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Speaker (name, title) VALUES ('speaker %d', %s)", i, title))
	}
	// Enough rows for the parallel scan path (exec.DefaultParallelScanMinRows).
	for lo := 0; lo < 2400; lo += 400 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO Big VALUES ")
		for i := lo; i < lo+400; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%7, i%11)
		}
		mustExec(t, eng, sb.String())
	}

	pin := eng.store.AcquireSnapshot()
	defer pin.Release()
	firstTalk := sqltypes.NewString(conf.Talks[0].Title).SQLLiteral()
	steps := []struct {
		path, sql string
		check     func(*Result) error
	}{
		{"sequential scan", "SELECT title FROM Talk WHERE title LIKE '%1%'", nil},
		{"parallel scan", "SELECT id, v FROM Big WHERE v > 5", nil},
		{"index scan", "SELECT id FROM Big WHERE grp = 3", nil},
		{"PK lookup", "SELECT v FROM Big WHERE id = 17", nil},
		{"stop-after scan", "SELECT id FROM Big LIMIT 3", nil},
		{"CrowdProbe fill", "SELECT abstract, nb_attendees FROM Talk", func(r *Result) error {
			if r.Stats.ProbeRequests == 0 || r.Rows[0][0].IsUnknown() {
				return fmt.Errorf("no value was filled: %+v", r.Stats)
			}
			return nil
		}},
		{"CrowdJoin inner probe", "SELECT t.title, s.affiliation FROM Talk t JOIN Speaker s ON s.title = t.title WHERE t.title = " + firstTalk,
			func(r *Result) error {
				for _, row := range r.Rows {
					if r.Stats.ProbeRequests > 0 && strings.HasPrefix(strings.ToLower(row[1].Str()), "institute of ") {
						return nil
					}
				}
				return fmt.Errorf("no inner affiliation was filled: %v (%+v)", r.Rows, r.Stats)
			}},
		{"UPDATE by PK", "UPDATE Big SET v = v + 1 WHERE id = 5", nil},
		{"UPDATE by index", "UPDATE Big SET v = 0 WHERE grp = 2", nil},
		{"UPDATE by scan", "UPDATE Talk SET nb_attendees = 1 WHERE nb_attendees > 0", nil},
		{"DELETE by PK", "DELETE FROM Big WHERE id = 9", nil},
		{"IN (SELECT …)", "SELECT id FROM Big WHERE grp IN (SELECT grp FROM Big WHERE id < 3) AND v = 4", nil},
	}
	before := eng.store.VersionFingerprints()
	for _, st := range steps {
		res := mustExec(t, eng, st.sql)
		if st.check != nil {
			if err := st.check(res); err != nil {
				t.Fatalf("%s: %v", st.path, err)
			}
		}
		after := eng.store.VersionFingerprints()
		for k, fp := range before {
			got, ok := after[k]
			if !ok {
				t.Fatalf("%s: version %s vanished while a snapshot pins it", st.path, k)
			}
			if got != fp {
				t.Fatalf("%s (%s): stored version image %s was modified in place", st.path, st.sql, k)
			}
		}
		before = after
	}
}
