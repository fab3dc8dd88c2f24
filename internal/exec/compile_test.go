package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// Differential tests for the compiled evaluator against refEval, the
// tree-walking evaluator it replaced (refeval_test.go).

var diffSchema = []plan.Col{
	{Table: "t", Name: "a"}, {Table: "t", Name: "b"},
	{Table: "t", Name: "c"}, {Table: "t", Name: "d"},
}

// diffValues are the row values: both unknowns, every kind, and strings
// that look numeric or boolean so implicit conversions fire.
var diffValues = []sqltypes.Value{
	sqltypes.Null(), sqltypes.CNull(),
	sqltypes.NewInt(0), sqltypes.NewInt(7), sqltypes.NewInt(-3),
	sqltypes.NewFloat(0.5), sqltypes.NewFloat(7), sqltypes.NewFloat(-2.25),
	sqltypes.NewBool(true), sqltypes.NewBool(false),
	sqltypes.NewString("7"), sqltypes.NewString(" 7"), sqltypes.NewString("07"),
	sqltypes.NewString("abc"), sqltypes.NewString("AbC"), sqltypes.NewString(""),
	sqltypes.NewString("yes"),
}

// diffRows covers every value in every column position.
func diffRows() []Row {
	n := len(diffValues)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{diffValues[i], diffValues[(i+5)%n], diffValues[(i+11)%n], diffValues[(i*3+1)%n]}
	}
	return rows
}

// crowdRecorder is a CROWDEQUAL resolver that logs every question and
// answers deterministically from it: TRUE, FALSE, NULL or an error.
type crowdRecorder struct{ calls []string }

var errCrowdDown = errors.New("crowd unavailable")

func (c *crowdRecorder) resolve(q, l, r string) (sqltypes.Value, error) {
	call := q + "|" + l + "|" + r
	c.calls = append(c.calls, call)
	switch len(call) % 4 {
	case 0:
		return sqltypes.NewBool(true), nil
	case 1:
		return sqltypes.NewBool(false), nil
	case 2:
		return sqltypes.Null(), nil
	}
	return sqltypes.Value{}, errCrowdDown
}

type evalOutcome struct {
	v   sqltypes.Value
	err error
}

func (o evalOutcome) String() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	return fmt.Sprintf("%v (kind %d)", o.v, o.v.Kind())
}

func sameOutcome(a, b evalOutcome) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return a.err.Error() == b.err.Error()
	}
	return a.v.Kind() == b.v.Kind() && a.v.String() == b.v.String()
}

// guarded runs f, turning a panic into a test failure naming what ran.
func guarded(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s panicked: %v", what, p)
		}
	}()
	f()
}

// checkCompiledExpr evaluates e over every diff row with refEval, the
// compiled value form and the compiled predicate form, and requires the
// same values, errors and CROWDEQUAL call sequences.
func checkCompiledExpr(t *testing.T, e parser.Expr) {
	t.Helper()
	var refCrowd, valCrowd, predCrowd crowdRecorder
	valFn := compileValue(e, diffSchema, compileEnv{crowdEqual: valCrowd.resolve})
	predFn := compilePred(e, diffSchema, compileEnv{crowdEqual: predCrowd.resolve})
	for i, row := range diffRows() {
		var ref, got evalOutcome
		var gotT truth
		var predErr error
		what := fmt.Sprintf("%s over row %d %v", e, i, row)
		guarded(t, "refEval: "+what, func() {
			ref.v, ref.err = refEval(e, &refEvalCtx{schema: diffSchema, row: row, crowdEqual: refCrowd.resolve})
		})
		guarded(t, "compiled value: "+what, func() { got.v, got.err = valFn(row) })
		guarded(t, "compiled predicate: "+what, func() { gotT, predErr = predFn(row) })
		if !sameOutcome(ref, got) {
			t.Fatalf("%s: compiled %v, reference %v", what, got, ref)
		}
		if (predErr == nil) != (ref.err == nil) || (predErr != nil && predErr.Error() != ref.err.Error()) {
			t.Fatalf("%s: predicate error %v, reference %v", what, predErr, ref.err)
		}
		if ref.err == nil {
			b, unknown := refBoolOf(ref.v)
			want := truthOf(b)
			if unknown {
				want = tUnknown
			}
			if gotT != want {
				t.Fatalf("%s: predicate %d, reference value %v", what, gotT, ref.v)
			}
		}
	}
	for name, calls := range map[string][]string{"value": valCrowd.calls, "predicate": predCrowd.calls} {
		if strings.Join(calls, "\n") != strings.Join(refCrowd.calls, "\n") {
			t.Fatalf("%s: %s form asked the crowd %q, reference %q", e, name, calls, refCrowd.calls)
		}
	}
}

// exprGen builds random CrowdSQL expressions as text, so every case goes
// through the parser the way a query's expressions do.
type exprGen struct{ rng *rand.Rand }

func (g exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g exprGen) column() string {
	return g.pick("a", "b", "c", "d", "t.a", "t.d", "a", "b", "zz", "u.a")
}

func (g exprGen) literal() string {
	return g.pick("0", "1", "-1", "7", "2", "9223372036854775807", "0.5", "2.5", "-1.5", "7.0",
		"'7'", "' 7'", "'07'", "'abc'", "'A'", "''", "'true'", "'x%'", "TRUE", "FALSE", "NULL", "CNULL")
}

func (g exprGen) pattern() string {
	return g.pick("'%'", "'a%'", "'%c'", "'_b_'", "'%B%'", "'7'", "'_'", "''", "'%7'", "'0_'", "NULL")
}

func (g exprGen) leaf() string {
	if g.rng.Intn(2) == 0 {
		return g.column()
	}
	return g.literal()
}

func (g exprGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(5) == 0 {
		return g.leaf()
	}
	sub := func() string { return "(" + g.expr(depth-1) + ")" }
	cmpOp := g.pick("=", "<>", "<", "<=", ">", ">=")
	not := g.pick("", "NOT ")
	switch g.rng.Intn(16) {
	case 0:
		return sub() + " " + cmpOp + " " + sub()
	case 1:
		return g.column() + " " + cmpOp + " " + g.literal()
	case 2:
		return g.literal() + " " + cmpOp + " " + g.column()
	case 3:
		return sub() + g.pick(" AND ", " OR ") + sub()
	case 4:
		return "NOT " + sub()
	case 5:
		return sub() + " IS " + not + g.pick("NULL", "CNULL")
	case 6:
		items := []string{g.literal(), g.literal(), g.literal()}
		if g.rng.Intn(2) == 0 {
			items[g.rng.Intn(3)] = sub()
		}
		return sub() + " " + not + "IN (" + strings.Join(items, ", ") + ")"
	case 7:
		return sub() + " " + not + "BETWEEN " + sub() + " AND " + sub()
	case 8:
		if g.rng.Intn(3) == 0 {
			return sub() + " LIKE " + sub()
		}
		return sub() + " LIKE " + g.pattern()
	case 9:
		return sub() + " " + g.pick("+", "-", "*", "/", "%") + " " + sub()
	case 10:
		return sub() + " || " + sub()
	case 11:
		switch f := g.pick("LOWER", "UPPER", "TRIM", "LENGTH", "ABS", "ROUND", "COALESCE", "SUBSTR"); f {
		case "COALESCE":
			return "COALESCE(" + sub() + ", " + sub() + ", " + g.leaf() + ")"
		case "SUBSTR", "ROUND":
			args := []string{sub(), g.pick("1", "2", "-1", "0", "9", "a", "NULL"), g.pick("1", "2", "-1", "0", "9", "b", "NULL")}
			return f + "(" + strings.Join(args[:1+g.rng.Intn(3)], ", ") + ")"
		default:
			return f + "(" + sub() + ")"
		}
	case 12:
		if g.rng.Intn(2) == 0 {
			return sub() + " ~= " + sub()
		}
		if g.rng.Intn(2) == 0 {
			return "CROWDEQUAL(" + sub() + ", " + sub() + ", " + g.pick("'same?'", "a", "b") + ")"
		}
		return "CROWDEQUAL(" + sub() + ", " + sub() + ")"
	case 13:
		return "-" + sub()
	case 14:
		return g.pick("COUNT", "SUM", "CROWDORDER") + "(" + sub() + ")"
	default:
		return g.column() + " " + cmpOp + " " + g.column()
	}
}

func TestCompiledExprMatchesReference(t *testing.T) {
	g := exprGen{rng: rand.New(rand.NewSource(14))}
	n := 4000
	if testing.Short() {
		n = 500
	}
	for i := 0; i < n; i++ {
		src := g.expr(4)
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("generated %q does not parse: %v", src, err)
		}
		checkCompiledExpr(t, e)
	}
}

// FuzzCompiledExpr checks the compiled evaluator against refEval on
// arbitrary expression text; its seed corpus is testdata/fuzz/FuzzCompiledExpr.
func FuzzCompiledExpr(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		// refEval's recursive LIKE is exponential in the pattern's '%'s:
		// keep its inputs small enough to stay fast.
		if len(src) > 160 || strings.Count(src, "%") > 4 {
			t.Skip()
		}
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		checkCompiledExpr(t, e)
	})
}

// TestCompileFilterFirstUnknownColumn pins where an unresolvable column
// fails: CompileFilter reports the first one in WalkExprs order up front,
// while compiled expressions fail only when they evaluate a row.
func TestCompileFilterFirstUnknownColumn(t *testing.T) {
	e, err := parser.ParseExpr("a = 1 AND (COALESCE(zz, yy) > 0 OR xx IS NULL)")
	if err != nil {
		t.Fatal(err)
	}
	var walked error
	parser.WalkExprs(e, func(x parser.Expr) {
		if cr, ok := x.(*parser.ColumnRef); ok && walked == nil {
			_, walked = plan.FindCol(diffSchema, cr.Table, cr.Name)
		}
	})
	if _, err := CompileFilter(e, diffSchema); err == nil || walked == nil || err.Error() != walked.Error() {
		t.Fatalf("CompileFilter error %v, want the first walked column's %v", err, walked)
	}
	fn := CompileExpr(e, diffSchema) // compiles; fails only per row
	if _, err := fn(diffRows()[0]); err == nil {
		t.Fatal("evaluating an unknown column must fail")
	}
	if f, err := CompileFilter(nil, diffSchema); err != nil {
		t.Fatal(err)
	} else if keep, _ := f.Keep(nil); !keep {
		t.Fatal("no WHERE keeps every row")
	}
}

// TestCompiledPredicateSharedAcrossGoroutines runs one compiled predicate
// from several goroutines, as parallel scan workers do; under -race it
// fails if compiled code writes shared state.
func TestCompiledPredicateSharedAcrossGoroutines(t *testing.T) {
	e, err := parser.ParseExpr("(a >= 0 AND LOWER(b) LIKE '%b%') OR c IN (7, 'abc', NULL) OR SUBSTR(d, 2, 2) = 'bc'")
	if err != nil {
		t.Fatal(err)
	}
	p := compilePred(e, diffSchema, compileEnv{})
	rows := diffRows()
	want := make([]bool, len(rows))
	for i, r := range rows {
		want[i], _ = p.keep(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, r := range rows {
					if got, _ := p.keep(r); got != want[i] {
						t.Errorf("row %d: %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestLikeMatchesRecursiveReference compares the iterative matcher with
// the recursive one it replaced on random strings and patterns.
func TestLikeMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func(alphabet string, max int) string {
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, p := word("abAB%_", 8), word("abAB%_", 7)
		if got, want := likeMatch(s, p), refLikeMatch(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	}
	// Multi-byte runes: '_' consumes one rune, not one byte; invalid
	// bytes compare as U+FFFD either way.
	for _, c := range [][2]string{{"héllo", "h_llo"}, {"héllo", "h__llo"}, {"ÉTÉ", "%té"}, {"\xffa", "_a"}, {"\xff", "\xfe"}} {
		if got, want := likeMatch(c[0], c[1]), refLikeMatch(c[0], c[1]); got != want {
			t.Errorf("likeMatch(%q, %q) = %v, reference %v", c[0], c[1], got, want)
		}
	}
}

// TestLikeLinearTime: the recursive matcher took seconds on this row;
// the iterative one must answer well within a generous deadline.
func TestLikeLinearTime(t *testing.T) {
	s := strings.Repeat("a", 40)
	p := strings.Repeat("%a", 8) + "%b"
	start := time.Now()
	if likeMatch(s, p) {
		t.Fatalf("%q LIKE %q must not match", s, p)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("LIKE took %v", d)
	}
}
