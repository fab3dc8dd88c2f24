package exec

import (
	"fmt"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// runWithStats compiles+runs a SELECT and also returns executor stats.
func (h *harness) runWithStats(t *testing.T, sql string) ([]Row, Stats) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.Build(stmt.(*parser.Select), h.cat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.Optimize(root, h.cat, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	op, err := Build(opt.Root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx.Stats
}

func bigTable(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "item",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "grp", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeInt},
		},
	})
	for i := 0; i < 500; i++ {
		h.insert(t, "item", Row{num(int64(i)), str(fmt.Sprintf("g%d", i%20)), num(int64(i * 3))})
	}
	return h
}

func TestPKLookupAvoidsFullScan(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 123")
	if len(rows) != 1 || rows[0][0].Int() != 369 {
		t.Fatalf("rows: %v", rows)
	}
	if st.RowsScanned > 1 {
		t.Errorf("PK lookup must touch 1 row, scanned %d", st.RowsScanned)
	}
}

func TestPKLookupMiss(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 99999")
	if len(rows) != 0 {
		t.Errorf("rows: %v", rows)
	}
	if st.RowsScanned != 0 {
		t.Errorf("missing key must scan nothing: %d", st.RowsScanned)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	h := bigTable(t)
	tab, _ := h.cat.Table("item")
	if err := h.cat.CreateIndex(&catalog.Index{Name: "idx_grp", Table: "item", Columns: []string{"grp"}}); err != nil {
		t.Fatal(err)
	}
	if err := h.store.CreateIndex("item", "idx_grp", []int{tab.ColumnIndex("grp")}, false); err != nil {
		t.Fatal(err)
	}
	rows, st := h.runWithStats(t, "SELECT id FROM item WHERE grp = 'g7'")
	if len(rows) != 25 {
		t.Fatalf("rows: %d", len(rows))
	}
	if st.RowsScanned != 25 {
		t.Errorf("index lookup must touch 25 rows, scanned %d", st.RowsScanned)
	}
}

func TestIndexScanAppliesResidualFilter(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT v FROM item WHERE id = 123 AND v > 1000")
	if len(rows) != 0 {
		t.Errorf("residual filter ignored: %v", rows)
	}
	if st.RowsScanned > 1 {
		t.Errorf("still a point lookup: %d", st.RowsScanned)
	}
}

func TestIndexScanCoercesKeyType(t *testing.T) {
	h := bigTable(t)
	// String literal against INTEGER PK must still hit the index.
	rows, _ := h.runWithStats(t, "SELECT v FROM item WHERE id = '42'")
	if len(rows) != 1 || rows[0][0].Int() != 126 {
		t.Errorf("coerced key lookup: %v", rows)
	}
}

func TestSeqScanFallbackWithoutIndex(t *testing.T) {
	h := bigTable(t)
	rows, st := h.runWithStats(t, "SELECT id FROM item WHERE grp = 'g3'")
	if len(rows) != 25 {
		t.Fatalf("rows: %d", len(rows))
	}
	if st.RowsScanned != 500 {
		t.Errorf("no index on grp: full scan expected, got %d", st.RowsScanned)
	}
}

// TestAccessPathShapes pins which WHERE shapes reach an index (no full
// scan) — for SELECT and keyed UPDATE/DELETE alike — and which must fall
// back to a scan because an OR, a range, or a mixed-kind equality could
// match rows the probed key misses.
func TestAccessPathShapes(t *testing.T) {
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "a", Type: sqltypes.TypeInt},
			{Name: "b", Type: sqltypes.TypeString},
		},
	})
	for _, col := range []string{"a", "b"} {
		if err := h.cat.CreateIndex(&catalog.Index{Name: "t_" + col, Table: "t", Columns: []string{col}}); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := h.cat.Table("t")
	cases := []struct {
		where string
		path  bool
	}{
		{"k = 7", true},
		{"7 = k", true},
		{"k = '7'", true},
		{"k = 7.0", true},
		{"k = 7.5", true},
		{"k = NULL", true},
		{"k = 7 AND a > 3", true},
		{"a = 2", true},
		{"b = 'x'", true},
		{"k = 7 OR a = 2", false},
		{"k = TRUE", false},
		{"b = 7", false},
		{"a > 2", false},
	}
	for _, c := range cases {
		where, err := parser.ParseExpr(c.where)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := chooseAccessPath(h.cat, tab, optimizer.ProbeKeys(where)); ok != c.path {
			t.Errorf("WHERE %s: access path %v, want %v", c.where, ok, c.path)
		}
	}
}

// TestIndexScanMixedKindEquality checks that equalities the evaluator
// satisfies through implicit conversion find every row: a boolean against
// an INTEGER key and a number against a STRING key are not index probes.
func TestIndexScanMixedKindEquality(t *testing.T) {
	h := bigTable(t)
	if rows, _ := h.runWithStats(t, "SELECT id FROM item WHERE id = TRUE"); len(rows) != 499 {
		t.Errorf("id = TRUE matched %d rows, want every non-zero id (499)", len(rows))
	}
	h.createTable(t, &catalog.Table{
		Name:    "code",
		Columns: []catalog.Column{{Name: "c", Type: sqltypes.TypeString, PrimaryKey: true}},
	})
	h.insert(t, "code", Row{str("7")}, Row{str("07")}, Row{str("x")})
	if rows, _ := h.runWithStats(t, "SELECT c FROM code WHERE c = 7"); len(rows) != 2 {
		t.Errorf("c = 7 matched %v, want '7' and '07'", rows)
	}
}
