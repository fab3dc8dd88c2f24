package core

// Differential test for keyed UPDATE/DELETE: the engine fetches DML
// candidates through the primary key or a secondary index when a WHERE
// conjunct pins one, and must agree — affected count, error or not, and
// the final table — with the reference semantics of scanning every row
// and evaluating WHERE on each.

import (
	"fmt"
	"math/rand"
	"testing"

	"crowddb/internal/exec"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// referenceDML applies an UPDATE or DELETE the pre-index way: scan every
// row at the watermark, evaluate WHERE on each, apply the matches in one
// transaction (rows applied before an error stay applied).
func referenceDML(t *testing.T, e *Engine, sql string) (int, error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	var table string
	var where parser.Expr
	var set []parser.Assignment
	switch s := stmt.(type) {
	case *parser.Update:
		table, where, set = s.Table, s.Where, s.Set
	case *parser.Delete:
		table, where = s.Table, s.Where
	default:
		t.Fatalf("not DML: %q", sql)
	}
	tbl, _ := e.cat.Table(table)
	schema := plan.NewScan(tbl, "").Schema()
	ids, rows, err := e.store.ScanRows(tbl.Name)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := exec.CompileFilter(where, schema)
	if err != nil {
		return 0, err
	}
	tx := e.store.Begin()
	defer tx.Commit()
	n := 0
	for i, row := range rows {
		match, err := matches.Keep(row)
		if err != nil {
			return n, err
		}
		if !match {
			continue
		}
		if _, isDelete := stmt.(*parser.Delete); isDelete {
			err = tx.Delete(tbl.Name, ids[i])
		} else {
			updated := row.Clone()
			for _, a := range set {
				ci := tbl.ColumnIndex(a.Column)
				v, err := exec.CompileExpr(a.Value, schema)(updated)
				if err != nil {
					return n, err
				}
				if updated[ci], err = v.Coerce(tbl.Columns[ci].Type); err != nil {
					return n, err
				}
			}
			err = tx.Update(tbl.Name, ids[i], updated)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// sameRows compares two ID-ordered row sets exactly.
func sameRows(aIDs, bIDs []storage.RowID, a, b []storage.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if aIDs[i] != bIDs[i] {
			return fmt.Errorf("row %d: id %d vs %d", i, aIDs[i], bIDs[i])
		}
		for c := range a[i] {
			if !sqltypes.Identical(a[i][c], b[i][c]) {
				return fmt.Errorf("row id %d col %d: %v vs %v", aIDs[i], c, a[i][c], b[i][c])
			}
		}
	}
	return nil
}

// dmlGen draws statements over t(k INTEGER, a INTEGER, b STRING), where k
// is the primary key (or a plain column) and k, a and b may carry indexes.
type dmlGen struct{ r *rand.Rand }

// intLit renders a literal an INTEGER column may or may not equal under
// SQL's implicit conversions: plain, quoted, padded, zero-led, float,
// fractional, NULL and boolean spellings.
func (g dmlGen) intLit(v int) string {
	switch g.r.Intn(10) {
	case 0:
		return fmt.Sprintf("'%d'", v)
	case 1:
		return fmt.Sprintf("' %d'", v)
	case 2:
		return fmt.Sprintf("'0%d'", v)
	case 3:
		return fmt.Sprintf("%d.0", v)
	case 4:
		return fmt.Sprintf("%d.5", v)
	case 5:
		return "NULL"
	case 6:
		if v%2 == 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprint(v)
	}
}

func (g dmlGen) strVal(v int) string {
	switch g.r.Intn(3) {
	case 0:
		return fmt.Sprintf("'%d'", v)
	case 1:
		return fmt.Sprintf("'0%d'", v)
	default:
		return fmt.Sprintf("'x%d'", v)
	}
}

func (g dmlGen) key() int { return g.r.Intn(40) }

func (g dmlGen) where() string {
	col := []string{"k", "a"}[g.r.Intn(2)]
	lit := g.intLit(g.key())
	switch g.r.Intn(10) {
	case 0:
		return fmt.Sprintf("%s = %s", col, lit)
	case 1:
		return fmt.Sprintf("%s = %s", lit, col)
	case 2:
		return fmt.Sprintf("%s = %s AND a > %d", col, lit, g.r.Intn(8))
	case 3:
		return fmt.Sprintf("%s = %s AND b = %s", col, lit, g.strVal(g.r.Intn(10)))
	case 4:
		return fmt.Sprintf("%s = %s OR a = %d", col, lit, g.r.Intn(8))
	case 5:
		return fmt.Sprintf("b = %s", g.intLit(g.r.Intn(10)))
	case 6:
		return fmt.Sprintf("a = %s AND k = %s", g.intLit(g.r.Intn(8)), lit)
	case 7:
		return "a IS NULL"
	case 8:
		return fmt.Sprintf("k = %d", g.key())
	default:
		return fmt.Sprintf("a = %d", g.r.Intn(8))
	}
}

func (g dmlGen) set() string {
	switch g.r.Intn(6) {
	case 0:
		return "a = a + 1"
	case 1:
		return "b = " + g.strVal(g.r.Intn(10))
	case 2:
		return fmt.Sprintf("k = %d", g.key()) // PK change: may collide or change shard
	case 3:
		return "k = k + 40"
	case 4:
		return "a = NULL"
	default:
		return fmt.Sprintf("a = %d, b = %s", g.r.Intn(8), g.strVal(g.r.Intn(10)))
	}
}

func (g dmlGen) insert(k int) string {
	a := fmt.Sprint(g.r.Intn(8))
	if g.r.Intn(8) == 0 {
		a = "NULL"
	}
	return fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %s)", k, a, g.strVal(g.r.Intn(10)))
}

func TestKeyedDMLMatchesFullScanReference(t *testing.T) {
	const pkTable = "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b STRING)"
	const plainTable = "CREATE TABLE t (k INTEGER, a INTEGER, b STRING)"
	kinds := []struct {
		name string
		ddl  []string
	}{
		{"pk", []string{pkTable}},
		{"pk+index", []string{pkTable, "CREATE INDEX t_a ON t (a)", "CREATE INDEX t_b ON t (b)"}},
		{"nopk", []string{plainTable}},
		{"nopk+index", []string{plainTable, "CREATE INDEX t_k ON t (k)"}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/seed=%d", kind.name, seed), func(t *testing.T) {
				runDMLDifferential(t, seed, kind.ddl)
			})
		}
	}
}

func runDMLDifferential(t *testing.T, seed int64, ddl []string) {
	g := dmlGen{rand.New(rand.NewSource(seed))}
	open := func() *Engine {
		e, err := Open(Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, sql := range ddl {
			mustExec(t, e, sql)
		}
		return e
	}
	eng, ref := open(), open()
	both := func(sql string) {
		_, errE := eng.Exec(sql)
		_, errR := ref.Exec(sql)
		if (errE == nil) != (errR == nil) {
			t.Fatalf("%q: engine err %v, reference err %v", sql, errE, errR)
		}
	}
	dml := func(sql string) {
		res, errE := eng.Exec(sql)
		n, errR := referenceDML(t, ref, sql)
		if (errE == nil) != (errR == nil) {
			t.Fatalf("%q: engine err %v, reference err %v", sql, errE, errR)
		}
		if errE == nil && res.Affected != n {
			t.Fatalf("%q: engine affected %d, reference %d", sql, res.Affected, n)
		}
	}
	check := func(what string) {
		eIDs, eRows, _ := eng.store.ScanRows("t")
		rIDs, rRows, _ := ref.store.ScanRows("t")
		if err := sameRows(eIDs, rIDs, eRows, rRows); err != nil {
			t.Fatalf("after %s: table differs from reference: %v", what, err)
		}
	}
	for i := 0; i < 30; i++ {
		both(g.insert(g.key()))
	}
	check("load")
	for step := 0; step < 80; step++ {
		var what string
		switch r := g.r.Intn(20); {
		case r < 9:
			what = fmt.Sprintf("UPDATE t SET %s WHERE %s", g.set(), g.where())
			dml(what)
		case r < 13:
			what = "DELETE FROM t WHERE " + g.where()
			dml(what)
		case r < 17:
			what = g.insert(g.key())
			both(what)
		default:
			// Delete and re-insert one key under a live snapshot: the
			// retained dead version keeps its index entries, and the
			// keyed UPDATE that follows must reach only the new row.
			k := g.key()
			snapE, snapR := eng.store.AcquireSnapshot(), ref.store.AcquireSnapshot()
			preIDs, preRows, _ := eng.store.ScanRowsAt("t", snapE.TS())
			what = fmt.Sprintf("delete/re-insert k=%d under a snapshot", k)
			dml(fmt.Sprintf("DELETE FROM t WHERE k = %d", k))
			both(g.insert(k))
			dml(fmt.Sprintf("UPDATE t SET a = a + 1 WHERE k = %d", k))
			sIDs, sRows, _ := eng.store.ScanRowsAt("t", snapE.TS())
			if err := sameRows(preIDs, sIDs, preRows, sRows); err != nil {
				t.Fatalf("%s: snapshot view moved: %v", what, err)
			}
			rIDs, rRows, _ := ref.store.ScanRowsAt("t", snapR.TS())
			if err := sameRows(sIDs, rIDs, sRows, rRows); err != nil {
				t.Fatalf("%s: snapshot view differs from reference: %v", what, err)
			}
			snapE.Release()
			snapR.Release()
		}
		check(what)
	}
}

// TestKeyedDMLUnknownColumnFails checks that a WHERE naming a column the
// table lacks fails the statement even when the access path fetches no
// candidate row to evaluate it on.
func TestKeyedDMLUnknownColumnFails(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustExec(t, eng, "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER)")
	mustExec(t, eng, "INSERT INTO t VALUES (1, 1)")
	for _, sql := range []string{
		"UPDATE t SET a = 2 WHERE k = 99 AND nosuch = 1",
		"DELETE FROM t WHERE k = 99 AND nosuch = 1",
	} {
		if _, err := eng.Exec(sql); err == nil {
			t.Errorf("%s: want an unknown-column error", sql)
		}
	}
}
