package exec

// Differential tests for the bounded top-k sort and streaming
// aggregation. The top-k is checked against a stable full sort done here
// in the test; aggregation against refAggregate, a copy of the
// materializing evaluator that buffered every group's rows before
// computing its aggregates.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// setupMixed builds a table whose sort and group columns are full of
// ties, NULLs and CNULLs: a (few distinct INTEGERs), x (a FLOAT column
// holding INTEGER and FLOAT values), s (a few strings), g (the group).
func setupMixed(t *testing.T, rng *rand.Rand, n int) *harness {
	t.Helper()
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "m",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "a", Type: sqltypes.TypeInt},
			{Name: "x", Type: sqltypes.TypeFloat},
			{Name: "s", Type: sqltypes.TypeString},
			{Name: "g", Type: sqltypes.TypeString},
		},
	})
	unknown := func(v sqltypes.Value) sqltypes.Value {
		switch rng.Intn(10) {
		case 0:
			return sqltypes.Null()
		case 1:
			return sqltypes.CNull()
		}
		return v
	}
	for i := 0; i < n; i++ {
		var x sqltypes.Value
		if rng.Intn(2) == 0 {
			x = num(int64(rng.Intn(6)))
		} else {
			x = sqltypes.NewFloat(float64(rng.Intn(12)) / 2)
		}
		h.insert(t, "m", Row{
			num(int64(i)),
			unknown(num(int64(rng.Intn(5)))),
			unknown(x),
			unknown(str([]string{"p", "q", "r"}[rng.Intn(3)])),
			str([]string{"g1", "g2", "g3", "g4"}[rng.Intn(4)]),
		})
	}
	return h
}

// query compiles and runs sql with the given batch size, recording
// per-operator stats into stats when it is non-nil.
func (h *harness) query(sql string, batch int, stats map[plan.Node]*OpStats) ([]Row, error) {
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache(), BatchSize: batch, OpStats: stats}
	op, err := h.compile(ctx, sql)
	if err != nil {
		return nil, err
	}
	return Run(op, ctx)
}

// TestTopKMatchesStableSort: ORDER BY … LIMIT n OFFSET m through the
// bounded heap equals rows [m, m+n) of a stable sort of the unsorted
// result, at every batch size, and the sort buffers at most n+m rows.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := setupMixed(t, rng, 300)
	cols := []string{"id", "a", "x", "s"}
	wheres := []string{"", " WHERE a <> 2", " WHERE id < 0", " WHERE x > 1"}
	for i := 0; i < 150; i++ {
		where := wheres[rng.Intn(len(wheres))]
		type key struct {
			col  int
			desc bool
		}
		var keys []key
		var order []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			c := 1 + rng.Intn(3)
			kk := key{col: c, desc: rng.Intn(2) == 0}
			keys = append(keys, kk)
			item := cols[c]
			if kk.desc {
				item += " DESC"
			}
			order = append(order, item)
		}
		limit := []int{0, 1, 5, 37, 1000}[rng.Intn(5)]
		offset := []int{0, 0, 3, 50}[rng.Intn(4)]
		base := "SELECT id, a, x, s FROM m" + where
		sql := fmt.Sprintf("%s ORDER BY %s LIMIT %d", base, strings.Join(order, ", "), limit)
		if offset > 0 {
			sql += fmt.Sprintf(" OFFSET %d", offset)
		}

		all, err := h.query(base, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		sort.SliceStable(all, func(p, q int) bool {
			for _, k := range keys {
				c := sqltypes.SortCompare(all[p][k.col], all[q][k.col])
				if k.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		want := all[min(offset, len(all)):min(offset+limit, len(all))]

		for _, batch := range []int{1, 7, 256} {
			stats := map[plan.Node]*OpStats{}
			got, err := h.query(sql, batch, stats)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if rowsKey(got) != rowsKey(want) {
				t.Fatalf("%s (batch %d):\ngot  %s\nwant %s", sql, batch, rowsKey(got), rowsKey(want))
			}
			found := false
			for n, st := range stats {
				if _, ok := n.(*plan.Sort); ok {
					found = true
					if st.PeakBufferedRows > int64(limit+offset) {
						t.Fatalf("%s: sort buffered %d rows, bound %d", sql, st.PeakBufferedRows, limit+offset)
					}
				}
			}
			if !found {
				t.Fatalf("%s: no sort operator in the plan", sql)
			}
		}
	}
}

// TestAggregateMatchesMaterialized: streaming aggregation produces the
// same rows, or the same error, as the materializing evaluator, over
// random groupings, items, HAVING clauses and inputs with NULLs, CNULLs
// values SUM or MIN/MAX reject, and arguments that fail to evaluate.
func TestAggregateMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := setupMixed(t, rng, 400)
	// Rows that make some aggregates fail: a non-numeric string for SUM
	// over s in group g5 only, and a STRING among the numbers of x for
	// MIN/MAX in group g6 only.
	h.insert(t, "m",
		Row{num(1000), num(1), num(2), str("abc"), str("g5")},
		Row{num(1001), num(2), str("zz"), str("7"), str("g6")},
		Row{num(1002), num(3), num(4), str("8"), str("g6")},
	)
	groupBys := []string{"", " GROUP BY g", " GROUP BY a", " GROUP BY g, a"}
	items := []string{
		"COUNT(*)", "COUNT(a)", "SUM(a)", "AVG(x)", "SUM(x)", "MIN(x)", "MAX(s)",
		"SUM(a) * 2 + COUNT(*)", "-MIN(a)", "MAX(a) - MIN(a)", "SUM(x) / COUNT(x)",
		"SUM(s)", "MIN(x) < 3", "SUM(s + 1)", "MAX(a - s)",
	}
	havings := []string{
		"", " HAVING COUNT(*) > 30", " HAVING SUM(a) > 40 AND MIN(id) < 100",
		" HAVING MAX(x) >= 5", " HAVING g <> 'g5'", " HAVING MIN(id) < 1000",
		" HAVING -SUM(a) < -10 OR COUNT(s) = 0",
	}
	wheres := []string{"", " WHERE id < 0", " WHERE a IS NULL", " WHERE id >= 1000", " WHERE x > 2"}
	failed := 0
	for i := 0; i < 400; i++ {
		gb := groupBys[rng.Intn(len(groupBys))]
		var sel []string
		switch gb {
		case " GROUP BY g":
			sel = append(sel, "g")
		case " GROUP BY a":
			sel = append(sel, "a")
		case " GROUP BY g, a":
			sel = append(sel, "a", "g")
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			sel = append(sel, items[rng.Intn(len(items))])
		}
		having := havings[rng.Intn(len(havings))]
		if strings.Contains(having, "g <>") && !strings.Contains(gb, "g") {
			having = ""
		}
		sql := "SELECT " + strings.Join(sel, ", ") + " FROM m" + wheres[rng.Intn(len(wheres))] + gb + having

		want, wantErr := h.refAggregate(t, sql)
		if wantErr != nil {
			failed++
		}
		for _, batch := range []int{1, 7, 256} {
			got, err := h.query(sql, batch, nil)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s (batch %d): error %v, want %v", sql, batch, err, wantErr)
			}
			if rowsKey(got) != rowsKey(want) {
				t.Fatalf("%s (batch %d):\ngot  %s\nwant %s", sql, batch, rowsKey(got), rowsKey(want))
			}
		}
	}
	// Both outcomes must be well represented for the comparison to mean
	// anything.
	if failed < 20 || failed > 380 {
		t.Fatalf("%d of 400 queries failed: the generator no longer covers both outcomes", failed)
	}
}

// TestAggregateErrorOnlyWhenUsed pins the deferred-error contract: an
// aggregate that fails in a group HAVING filters out never fails the
// query; the same aggregate fails it once its group survives.
func TestAggregateErrorOnlyWhenUsed(t *testing.T) {
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "e",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeString},
		},
	})
	h.insert(t, "e",
		Row{num(1), str("ok"), str("1.5")},
		Row{num(2), str("bad"), str("abc")},
		Row{num(3), str("ok"), str("2")},
	)
	rows, err := h.query("SELECT g, SUM(v) FROM e GROUP BY g HAVING COUNT(*) > 1", 0, nil)
	if err != nil || rowsKey(rows) != "ok|3.5|\n" {
		t.Fatalf("filtered-out error group: rows %q, err %v", rowsKey(rows), err)
	}
	if _, err := h.query("SELECT g, SUM(v) FROM e GROUP BY g", 0, nil); err == nil ||
		!strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("surviving error group: err %v, want a non-numeric SUM error", err)
	}
}

// TestSumIntegerExact: SUM over INTEGERs is exact in int64 and reports
// overflow instead of wrapping; FLOAT and mixed input still sum as FLOAT.
func TestSumIntegerExact(t *testing.T) {
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "big",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "v", Type: sqltypes.TypeInt},
		},
	})
	h.insert(t, "big",
		Row{num(1), str("exact"), num(9007199254740993)},
		Row{num(2), str("exact"), num(0)},
		Row{num(3), str("wrap"), num(math.MaxInt64)},
		Row{num(4), str("wrap"), num(1)},
		Row{num(5), str("back"), num(math.MaxInt64)},
		Row{num(6), str("back"), num(1)},
		Row{num(7), str("back"), num(-2)},
		Row{num(8), str("mixed"), num(1)},
		Row{num(9), str("mixed"), sqltypes.NewFloat(0.5)},
	)
	cases := []struct{ g, want, err string }{
		{g: "exact", want: "9007199254740993|\n"},
		{g: "wrap", err: "SUM overflows INTEGER"},
		// An intermediate sum past MaxInt64 is fine when the total fits.
		{g: "back", want: "9223372036854775806|\n"},
		{g: "mixed", want: "1.5|\n"},
	}
	for _, c := range cases {
		rows, err := h.query("SELECT SUM(v) FROM big WHERE g = '"+c.g+"'", 0, nil)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("SUM over %s: rows %q err %v, want error %q", c.g, rowsKey(rows), err, c.err)
			}
			continue
		}
		if err != nil || rowsKey(rows) != c.want {
			t.Fatalf("SUM over %s: rows %q err %v, want %q", c.g, rowsKey(rows), err, c.want)
		}
	}
	// AVG keeps its FLOAT sum.
	rows, err := h.query("SELECT AVG(v) FROM big WHERE g = 'exact'", 0, nil)
	if err != nil || rowsKey(rows) != fmt.Sprintf("%v|\n", sqltypes.NewFloat(9007199254740993.0/2)) {
		t.Fatalf("AVG: rows %q err %v", rowsKey(rows), err)
	}
}

// refAggregate evaluates sql's aggregate the materializing way: it runs
// the aggregate's input plan to completion, groups the rows, and
// computes each group's items from its buffered rows.
func (h *harness) refAggregate(t *testing.T, sql string) ([]Row, error) {
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
	agg, ok := opt.Root.(*plan.Aggregate)
	if !ok {
		t.Fatalf("%s: plan root is %T, want an aggregate", sql, opt.Root)
	}
	ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
	in, err := Build(agg.Input, ctx)
	if err != nil {
		t.Fatal(err)
	}
	input, err := Run(in, ctx)
	if err != nil {
		return nil, err
	}
	schema := agg.Input.Schema()
	groups := map[string][]Row{}
	var order []string
	for _, r := range input {
		var kb strings.Builder
		for _, g := range agg.GroupBy {
			v, err := refEval(g, &refEvalCtx{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			kb.WriteString(sqltypes.EncodeKey(v))
			kb.WriteByte(0)
		}
		k := kb.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	if len(agg.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
	}
	var out []Row
	for _, k := range order {
		rows := groups[k]
		if agg.Having != nil {
			hv, err := refEvalAggExpr(agg.Having, rows, schema)
			if err != nil {
				return nil, err
			}
			if b, unknown := refBoolOf(hv); unknown || !b {
				continue
			}
		}
		row := make(Row, len(agg.Items))
		for i, it := range agg.Items {
			v, err := refEvalAggExpr(it.Expr, rows, schema)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// refEvalAggExpr evaluates an expression over a group's buffered rows:
// aggregates compute over all rows, everything else over the first row.
func refEvalAggExpr(e parser.Expr, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		return refComputeAggregate(fc, rows, schema)
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		if exprHasAggregate(e) {
			l, err := refEvalAggExpr(x.L, rows, schema)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := refEvalAggExpr(x.R, rows, schema)
			if err != nil {
				return sqltypes.Value{}, err
			}
			switch x.Op {
			case "AND", "OR":
				return refEvalLogic(x.Op, l, r)
			case "=", "<>", "<", "<=", ">", ">=":
				return refEvalBinary(&parser.BinaryExpr{Op: x.Op,
					L: &parser.Literal{Val: l}, R: &parser.Literal{Val: r}}, &refEvalCtx{})
			default:
				return refEvalArith(x.Op, l, r)
			}
		}
	case *parser.UnaryExpr:
		if exprHasAggregate(e) {
			v, err := refEvalAggExpr(x.E, rows, schema)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return refEval(&parser.UnaryExpr{Op: x.Op, E: &parser.Literal{Val: v}}, &refEvalCtx{})
		}
	}
	if len(rows) == 0 {
		return sqltypes.Null(), nil
	}
	return refEval(e, &refEvalCtx{schema: schema, row: rows[0]})
}

// refComputeAggregate computes one aggregate over buffered rows. Its
// INTEGER SUM goes through float64, as the materializing evaluator's
// did, so the differential data stays far below 2^53.
func refComputeAggregate(fc *parser.FuncCall, rows []Row, schema []plan.Col) (sqltypes.Value, error) {
	if fc.Star {
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	var vals []sqltypes.Value
	for _, r := range rows {
		v, err := refEval(fc.Args[0], &refEvalCtx{schema: schema, row: r})
		if err != nil {
			return sqltypes.Value{}, err
		}
		if !v.IsUnknown() {
			vals = append(vals, v)
		}
	}
	switch fc.Name {
	case "COUNT":
		return sqltypes.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, err := v.Coerce(sqltypes.TypeFloat)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("exec: %s over non-numeric value %v", fc.Name, v)
			}
			sum += f.Float()
			if v.Kind() != sqltypes.KindInt {
				allInt = false
			}
		}
		if fc.Name == "AVG" {
			return sqltypes.NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return sqltypes.NewInt(int64(sum)), nil
		}
		return sqltypes.NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := sqltypes.Compare(v, best)
			if !ok {
				return sqltypes.Value{}, fmt.Errorf("exec: %s over incomparable values", fc.Name)
			}
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown aggregate %s", fc.Name)
}
