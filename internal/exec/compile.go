package exec

import (
	"cmp"
	"fmt"
	"strings"
	"unicode/utf8"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// Expression compilation. An operator compiles each expression it
// evaluates once, at Open: every column reference is resolved to an
// ordinal of the operator's input schema and every operator's kernel is
// picked, so the per-row work is a chain of closure calls over the row.
// Value expressions compile to an evalFn; boolean contexts (WHERE, scan
// filters, join conditions, HAVING) compile to a predFn that returns a
// three-valued truth without building or coercing a Value per row.
//
// Semantics are SQL three-valued logic: NULL and CNULL are both
// "unknown"; a CNULL that reaches evaluation was either not instantiable
// (no quorum) or not a crowd column. Compilation itself never fails. A
// column the schema cannot resolve compiles to a closure that returns the
// resolution error when evaluated, so the error surfaces exactly where a
// row is first evaluated; compiler.colErr records the first such column
// for callers that must fail up front (UPDATE/DELETE).
//
// Concurrency: a compiled closure holds no mutable state, so one compiled
// predicate may be shared by goroutines (the parallel scan workers share
// their scan's filter). Only the run-time hooks in compileEnv touch
// shared state, and operators that evaluate on worker goroutines compile
// without them.

// crowdEqualFn resolves one CROWDEQUAL question; the executor wires it to
// the CrowdCompare machinery (cache + Task Manager).
type crowdEqualFn func(question, left, right string) (sqltypes.Value, error)

// evalFn is a compiled value expression over one row of the schema it was
// compiled against.
type evalFn func(Row) (sqltypes.Value, error)

// truth is a three-valued logic result.
type truth uint8

const (
	tFalse truth = iota
	tTrue
	tUnknown
)

func truthOf(b bool) truth {
	if b {
		return tTrue
	}
	return tFalse
}

// value renders t as the boolean Value a predicate evaluates to: NULL for
// unknown.
func (t truth) value() sqltypes.Value {
	switch t {
	case tTrue:
		return sqltypes.NewBool(true)
	case tFalse:
		return sqltypes.NewBool(false)
	}
	return sqltypes.Null()
}

// truthOfValue reads a value as a condition: unknown values and values
// that do not coerce to BOOLEAN are unknown.
func truthOfValue(v sqltypes.Value) truth {
	switch v.Kind() {
	case sqltypes.KindBool:
		return truthOf(v.Bool())
	case sqltypes.KindNull, sqltypes.KindCNull:
		return tUnknown
	}
	b, err := v.Coerce(sqltypes.TypeBool)
	if err != nil {
		return tUnknown
	}
	return truthOf(b.Bool())
}

// predFn is a compiled boolean expression.
type predFn func(Row) (truth, error)

// keep is the filter decision for one row: only true keeps it (unknown
// drops it, per SQL). A nil predicate keeps every row.
func (p predFn) keep(r Row) (bool, error) {
	if p == nil {
		return true, nil
	}
	t, err := p(r)
	return t == tTrue, err
}

// compileEnv carries the run-time hooks compiled code may call.
type compileEnv struct {
	// crowdEqual is nil when no crowd is attached; CROWDEQUAL then
	// evaluates to unknown (NULL).
	crowdEqual crowdEqualFn
	// exec gives access to subquery execution; nil in contexts where
	// IN (SELECT ...) is not supported.
	exec *Ctx
}

// compiler binds expressions to one schema and environment.
type compiler struct {
	schema []plan.Col
	env    compileEnv
	// colErr is the first column reference the schema cannot resolve, in
	// parser.WalkExprs order (children compile in that order).
	colErr error
}

// compileValue compiles a value expression over schema.
func compileValue(e parser.Expr, schema []plan.Col, env compileEnv) evalFn {
	c := compiler{schema: schema, env: env}
	return c.value(e)
}

// compilePred compiles a condition over schema; a nil condition compiles
// to a nil predFn, which keeps every row.
func compilePred(e parser.Expr, schema []plan.Col, env compileEnv) predFn {
	if e == nil {
		return nil
	}
	c := compiler{schema: schema, env: env}
	return c.pred(e)
}

// EvalConst evaluates a row-independent expression (literals, arithmetic,
// scalar functions). Column references fail.
func EvalConst(e parser.Expr) (sqltypes.Value, error) {
	return compileValue(e, nil, compileEnv{})(nil)
}

// CompileExpr compiles a value expression over schema for evaluation over
// many rows, without crowd support (CROWDEQUAL evaluates to unknown). An
// unresolvable column fails when the expression is evaluated.
func CompileExpr(e parser.Expr, schema []plan.Col) func(Row) (sqltypes.Value, error) {
	return compileValue(e, schema, compileEnv{})
}

// Filter is a compiled WHERE clause.
type Filter struct{ p predFn }

// Keep reports whether a row passes: unknown drops it, and the zero
// Filter (no WHERE) keeps every row.
func (f Filter) Keep(r Row) (bool, error) { return f.p.keep(r) }

// CompileFilter compiles an optional WHERE clause over schema, without
// crowd support. The error names the first column reference the schema
// cannot resolve, so a statement can fail before it reads a row.
func CompileFilter(where parser.Expr, schema []plan.Col) (Filter, error) {
	if where == nil {
		return Filter{}, nil
	}
	c := compiler{schema: schema}
	return Filter{c.pred(where)}, c.colErr
}

func constValue(v sqltypes.Value) evalFn {
	return func(Row) (sqltypes.Value, error) { return v, nil }
}

// columnFns holds the value closure of each small ordinal, shared by all
// compiled expressions, so binding a column reference allocates nothing.
var columnFns = func() (fns [64]evalFn) {
	for i := range fns {
		fns[i] = func(r Row) (sqltypes.Value, error) { return r[i], nil }
	}
	return fns
}()

func columnValue(i int) evalFn {
	if i < len(columnFns) {
		return columnFns[i]
	}
	return func(r Row) (sqltypes.Value, error) { return r[i], nil }
}

func failValue(err error) evalFn {
	return func(Row) (sqltypes.Value, error) { return sqltypes.Value{}, err }
}

// column resolves a column reference to its ordinal.
func (c *compiler) column(x *parser.ColumnRef) (int, error) {
	i, err := plan.FindCol(c.schema, x.Table, x.Name)
	if err != nil && c.colErr == nil {
		c.colErr = err
	}
	return i, err
}

// predNative reports whether e is a condition by construction: its value
// is always a BOOLEAN or NULL, so it compiles to a predFn natively.
func predNative(e parser.Expr) bool {
	switch x := e.(type) {
	case *parser.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return true
		}
	case *parser.UnaryExpr:
		return x.Op == "NOT"
	case *parser.IsNullExpr, *parser.InExpr, *parser.BetweenExpr:
		return true
	}
	return false
}

// value compiles e to a value-producing closure.
func (c *compiler) value(e parser.Expr) evalFn {
	if predNative(e) {
		p := c.pred(e)
		return func(r Row) (sqltypes.Value, error) {
			t, err := p(r)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return t.value(), nil
		}
	}
	switch x := e.(type) {
	case *parser.Literal:
		return constValue(x.Val)
	case *parser.ColumnRef:
		i, err := c.column(x)
		if err != nil {
			return failValue(err)
		}
		return columnValue(i)
	case *parser.BinaryExpr:
		if x.Op == "~=" {
			return c.crowdEqual(x.L, x.R, nil)
		}
		return c.binary(x)
	case *parser.UnaryExpr:
		inner := c.value(x.E)
		op := x.Op
		return func(r Row) (sqltypes.Value, error) {
			v, err := inner(r)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return unaryValue(op, v)
		}
	case *parser.FuncCall:
		return c.funcCall(x)
	}
	return failValue(fmt.Errorf("exec: cannot evaluate %T", e))
}

// binary compiles the value operators: concatenation and arithmetic.
func (c *compiler) binary(x *parser.BinaryExpr) evalFn {
	l, r := c.value(x.L), c.value(x.R)
	op := x.Op
	return func(row Row) (sqltypes.Value, error) {
		lv, err := l(row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		rv, err := r(row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return binaryValue(op, lv, rv)
	}
}

// binaryValue applies a concatenation or arithmetic operator.
func binaryValue(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case "||":
		if l.IsUnknown() || r.IsUnknown() {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewString(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(op, l, r)
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown operator %q", op)
}

// pred compiles e to a condition.
func (c *compiler) pred(e parser.Expr) predFn {
	switch x := e.(type) {
	case *parser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return c.logic(x)
		case "=", "<>", "<", "<=", ">", ">=":
			return c.compare(x)
		case "LIKE":
			return c.like(x)
		}
	case *parser.UnaryExpr:
		if x.Op == "NOT" {
			return c.not(x.E)
		}
	case *parser.IsNullExpr:
		return c.isNull(x)
	case *parser.InExpr:
		return c.in(x)
	case *parser.BetweenExpr:
		return c.between(x)
	}
	v := c.value(e)
	return func(r Row) (truth, error) {
		x, err := v(r)
		if err != nil {
			return tUnknown, err
		}
		return truthOfValue(x), nil
	}
}

// logic compiles AND/OR. Both sides always evaluate, left first: an error
// on either side surfaces, and a crowd comparison on the right is asked
// even when the left already decides the result, so the crowd sees the
// same questions in the same order whatever the data.
func (c *compiler) logic(x *parser.BinaryExpr) predFn {
	l, r := c.pred(x.L), c.pred(x.R)
	if x.Op == "AND" {
		return func(row Row) (truth, error) {
			lt, err := l(row)
			if err != nil {
				return tUnknown, err
			}
			rt, err := r(row)
			if err != nil {
				return tUnknown, err
			}
			return andTruth(lt, rt), nil
		}
	}
	return func(row Row) (truth, error) {
		lt, err := l(row)
		if err != nil {
			return tUnknown, err
		}
		rt, err := r(row)
		if err != nil {
			return tUnknown, err
		}
		return orTruth(lt, rt), nil
	}
}

func andTruth(l, r truth) truth {
	switch {
	case l == tFalse || r == tFalse:
		return tFalse
	case l == tUnknown || r == tUnknown:
		return tUnknown
	}
	return tTrue
}

func orTruth(l, r truth) truth {
	switch {
	case l == tTrue || r == tTrue:
		return tTrue
	case l == tUnknown || r == tUnknown:
		return tUnknown
	}
	return tFalse
}

// not compiles NOT e. A condition operand only flips; any other operand
// must coerce to BOOLEAN, and an operand that does not is an error.
func (c *compiler) not(e parser.Expr) predFn {
	if predNative(e) {
		p := c.pred(e)
		return func(r Row) (truth, error) {
			t, err := p(r)
			if err != nil {
				return tUnknown, err
			}
			switch t {
			case tTrue:
				return tFalse, nil
			case tFalse:
				return tTrue, nil
			}
			return tUnknown, nil
		}
	}
	v := c.value(e)
	return func(r Row) (truth, error) {
		x, err := v(r)
		if err != nil {
			return tUnknown, err
		}
		return notTruth(x)
	}
}

func notTruth(v sqltypes.Value) (truth, error) {
	if v.IsUnknown() {
		return tUnknown, nil
	}
	b, err := v.Coerce(sqltypes.TypeBool)
	if err != nil {
		return tUnknown, err
	}
	return truthOf(!b.Bool()), nil
}

// unaryValue applies a unary operator to an evaluated operand.
func unaryValue(op string, v sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case "NOT":
		t, err := notTruth(v)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return t.value(), nil
	case "-":
		switch v.Kind() {
		case sqltypes.KindInt:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		case sqltypes.KindNull, sqltypes.KindCNull:
			return v, nil
		}
		return sqltypes.Value{}, fmt.Errorf("exec: cannot negate %v", v)
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown unary op %q", op)
}

// cmpOp is a comparison operator as the set of Compare results it
// accepts: bit c+1 is set when a comparison result of c passes.
type cmpOp uint8

func newCmpOp(op string) cmpOp {
	const lt, eq, gt = 1 << 0, 1 << 1, 1 << 2
	switch op {
	case "=":
		return eq
	case "<>":
		return lt | gt
	case "<":
		return lt
	case "<=":
		return lt | eq
	case ">":
		return gt
	default: // ">="
		return eq | gt
	}
}

// test reports whether a Compare result (-1, 0 or 1) passes.
func (o cmpOp) test(c int) bool { return o&(1<<(c+1)) != 0 }

// compareValues compares two evaluated operands. Mixed string/number
// operands convert implicitly, left to right's type first (H2's
// behaviour, e.g. `id = '42'` on an INTEGER).
func compareValues(op cmpOp, l, r sqltypes.Value) truth {
	c, ok := sqltypes.Compare(l, r)
	if !ok && !l.IsUnknown() && !r.IsUnknown() {
		if lc, err := l.Coerce(r.TypeOf()); err == nil {
			c, ok = sqltypes.Compare(lc, r)
		} else if rc, err := r.Coerce(l.TypeOf()); err == nil {
			c, ok = sqltypes.Compare(l, rc)
		}
	}
	if !ok {
		return tUnknown
	}
	return truthOf(op.test(c))
}

// compare compiles a comparison. A column compared with a literal reads
// the row slot directly, and when both are INTEGER or both STRING it
// compares the payloads without the general path.
func (c *compiler) compare(x *parser.BinaryExpr) predFn {
	op := newCmpOp(x.Op)
	if col, ok := x.L.(*parser.ColumnRef); ok {
		if lit, ok := x.R.(*parser.Literal); ok {
			return c.compareColLit(op, col, lit.Val, false)
		}
	}
	if lit, ok := x.L.(*parser.Literal); ok {
		if col, ok := x.R.(*parser.ColumnRef); ok {
			return c.compareColLit(op, col, lit.Val, true)
		}
	}
	l, r := c.value(x.L), c.value(x.R)
	return func(row Row) (truth, error) {
		lv, err := l(row)
		if err != nil {
			return tUnknown, err
		}
		rv, err := r(row)
		if err != nil {
			return tUnknown, err
		}
		return compareValues(op, lv, rv), nil
	}
}

// compareColLit compiles `col op lit`, or `lit op col` when litLeft.
func (c *compiler) compareColLit(op cmpOp, col *parser.ColumnRef, lit sqltypes.Value, litLeft bool) predFn {
	i, err := c.column(col)
	if err != nil {
		return func(Row) (truth, error) { return tUnknown, err }
	}
	sign := 1
	if litLeft {
		sign = -1
	}
	switch lit.Kind() {
	case sqltypes.KindInt:
		k := lit.Int()
		return func(r Row) (truth, error) {
			if v := r[i]; v.Kind() == sqltypes.KindInt {
				return truthOf(op.test(sign * cmp.Compare(v.Int(), k))), nil
			}
			return compareColLitValues(op, r[i], lit, litLeft), nil
		}
	case sqltypes.KindString:
		s := lit.Str()
		return func(r Row) (truth, error) {
			if v := r[i]; v.Kind() == sqltypes.KindString {
				return truthOf(op.test(sign * strings.Compare(v.Str(), s))), nil
			}
			return compareColLitValues(op, r[i], lit, litLeft), nil
		}
	}
	return func(r Row) (truth, error) { return compareColLitValues(op, r[i], lit, litLeft), nil }
}

// compareColLitValues is compareColLit's general path, operands in their
// written order.
func compareColLitValues(op cmpOp, v, lit sqltypes.Value, litLeft bool) truth {
	if litLeft {
		return compareValues(op, lit, v)
	}
	return compareValues(op, v, lit)
}

// like compiles LIKE.
func (c *compiler) like(x *parser.BinaryExpr) predFn {
	l := c.value(x.L)
	p := c.value(x.R)
	return func(r Row) (truth, error) {
		v, err := l(r)
		if err != nil {
			return tUnknown, err
		}
		pv, err := p(r)
		if err != nil {
			return tUnknown, err
		}
		if v.IsUnknown() || pv.IsUnknown() {
			return tUnknown, nil
		}
		return truthOf(likeMatch(v.String(), pv.String())), nil
	}
}

// isNull compiles IS [NOT] NULL and IS [NOT] CNULL; CNULL is a NULL
// flavor for IS NULL.
func (c *compiler) isNull(x *parser.IsNullExpr) predFn {
	v := c.value(x.E)
	cnull, neg := x.CNull, x.Neg
	return func(r Row) (truth, error) {
		val, err := v(r)
		if err != nil {
			return tUnknown, err
		}
		match := val.IsUnknown()
		if cnull {
			match = val.IsCNull()
		}
		return truthOf(match != neg), nil
	}
}

// in compiles IN: a list evaluates every item per row; a subquery's
// values come from the statement's memo. The list is not looked at when the operand is unknown.
func (c *compiler) in(x *parser.InExpr) predFn {
	v := c.value(x.E)
	neg := x.Neg
	if x.Sub != nil {
		exec := c.env.exec
		return func(r Row) (truth, error) {
			val, err := v(r)
			if err != nil || val.IsUnknown() {
				return tUnknown, err
			}
			if exec == nil {
				return tUnknown, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
			}
			list, err := exec.subqueryValues(x)
			if err != nil {
				return tUnknown, err
			}
			return inTruth(val, list, neg), nil
		}
	}
	items := make([]evalFn, len(x.List))
	for i, item := range x.List {
		items[i] = c.value(item)
	}
	return func(r Row) (truth, error) {
		val, err := v(r)
		if err != nil || val.IsUnknown() {
			return tUnknown, err
		}
		list := make([]sqltypes.Value, len(items))
		for i, item := range items {
			if list[i], err = item(r); err != nil {
				return tUnknown, err
			}
		}
		return inTruth(val, list, neg), nil
	}
}

func inTruth(v sqltypes.Value, list []sqltypes.Value, neg bool) truth {
	sawUnknown := false
	for _, iv := range list {
		if iv.IsUnknown() {
			sawUnknown = true
			continue
		}
		if sqltypes.Equal(v, iv) {
			return truthOf(!neg)
		}
	}
	if sawUnknown {
		return tUnknown
	}
	return truthOf(neg)
}

// between compiles [NOT] BETWEEN: plain Compare on both bounds, with no
// implicit conversion.
func (c *compiler) between(x *parser.BetweenExpr) predFn {
	v, lo, hi := c.value(x.E), c.value(x.Lo), c.value(x.Hi)
	neg := x.Neg
	return func(r Row) (truth, error) {
		val, err := v(r)
		if err != nil {
			return tUnknown, err
		}
		l, err := lo(r)
		if err != nil {
			return tUnknown, err
		}
		h, err := hi(r)
		if err != nil {
			return tUnknown, err
		}
		c1, ok1 := sqltypes.Compare(val, l)
		c2, ok2 := sqltypes.Compare(val, h)
		if !ok1 || !ok2 {
			return tUnknown, nil
		}
		return truthOf((c1 >= 0 && c2 <= 0) != neg), nil
	}
}

// crowdEqual compiles CROWDEQUAL(l, r [, question]) and `l ~= r`. The
// question evaluates first, then both sides; unknown sides are unknown,
// trivially equal values need no crowd, and without a crowd the answer
// is unknown.
func (c *compiler) crowdEqual(le, re, qe parser.Expr) evalFn {
	l, r := c.value(le), c.value(re)
	var q evalFn
	if qe != nil {
		q = c.value(qe)
	}
	resolve := c.env.crowdEqual
	return func(row Row) (sqltypes.Value, error) {
		question := ""
		if q != nil {
			qv, err := q(row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			question = qv.String()
		}
		lv, err := l(row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		rv, err := r(row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if lv.IsUnknown() || rv.IsUnknown() {
			return sqltypes.Null(), nil
		}
		if sqltypes.Equal(lv, rv) {
			return sqltypes.NewBool(true), nil
		}
		if resolve == nil {
			return sqltypes.Null(), nil
		}
		return resolve(question, lv.String(), rv.String())
	}
}

// funcCall compiles a function call. Arguments evaluate in order before
// the kernel runs; up to four are held on the stack.
func (c *compiler) funcCall(x *parser.FuncCall) evalFn {
	if x.Name == "CROWDEQUAL" {
		var q parser.Expr
		if len(x.Args) == 3 {
			q = x.Args[2]
		}
		return c.crowdEqual(x.Args[0], x.Args[1], q)
	}
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.value(a)
	}
	switch {
	case x.IsAggregate():
		return failValue(fmt.Errorf("exec: aggregate %s outside aggregation context", x.Name))
	case x.Name == "CROWDORDER":
		return failValue(fmt.Errorf("exec: CROWDORDER is only valid in ORDER BY"))
	}
	name := x.Name
	return func(r Row) (sqltypes.Value, error) {
		var buf [4]sqltypes.Value
		vals := buf[:0]
		for _, a := range args {
			v, err := a(r)
			if err != nil {
				return sqltypes.Value{}, err
			}
			vals = append(vals, v)
		}
		return applyScalar(name, vals)
	}
}

func applyScalar(name string, args []sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "LOWER", "UPPER", "TRIM", "LENGTH":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		s := args[0].String()
		switch name {
		case "LOWER":
			return sqltypes.NewString(strings.ToLower(s)), nil
		case "UPPER":
			return sqltypes.NewString(strings.ToUpper(s)), nil
		case "TRIM":
			return sqltypes.NewString(strings.TrimSpace(s)), nil
		default:
			return sqltypes.NewInt(int64(len(s))), nil
		}
	case "ABS":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		if args[0].Kind() == sqltypes.KindInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		}
		f := args[0].Float()
		if f < 0 {
			f = -f
		}
		return sqltypes.NewFloat(f), nil
	case "ROUND":
		if args[0].IsUnknown() {
			return sqltypes.Null(), nil
		}
		f := args[0].Float()
		if f < 0 {
			return sqltypes.NewInt(int64(f - 0.5)), nil
		}
		return sqltypes.NewInt(int64(f + 0.5)), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsUnknown() {
				return a, nil
			}
		}
		return sqltypes.Null(), nil
	case "SUBSTR":
		return substr(args), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown function %s", name)
}

// substr implements SUBSTR(s [, start [, n]]) over bytes, 1-based; a
// start past the end or a negative length yields the empty string.
func substr(args []sqltypes.Value) sqltypes.Value {
	if args[0].IsUnknown() {
		return sqltypes.Null()
	}
	s := args[0].String()
	start := 1
	if len(args) > 1 && !args[1].IsUnknown() {
		start = int(args[1].Int())
	}
	if start < 1 {
		start = 1
	}
	if start > len(s) {
		return sqltypes.NewString("")
	}
	out := s[start-1:]
	if len(args) > 2 && !args[2].IsUnknown() {
		n := max(int(args[2].Int()), 0)
		if n < len(out) {
			out = out[:n]
		}
	}
	return sqltypes.NewString(out)
}

// evalArith applies an arithmetic operator. INTEGER operands stay exact
// except under '/'; everything else computes in FLOAT. Division or
// modulo by zero (after truncation, for a FLOAT modulo) is NULL.
func evalArith(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.IsUnknown() || r.IsUnknown() {
		return sqltypes.Null(), nil
	}
	lk, rk := l.Kind(), r.Kind()
	if lk == sqltypes.KindInt && rk == sqltypes.KindInt && op != "/" {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return sqltypes.NewInt(a + b), nil
		case "-":
			return sqltypes.NewInt(a - b), nil
		case "*":
			return sqltypes.NewInt(a * b), nil
		case "%":
			if b == 0 {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewInt(a % b), nil
		}
	}
	lf, err := l.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, op, r, err)
	}
	rf, err := r.Coerce(sqltypes.TypeFloat)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("exec: %v %s %v: %w", l, op, r, err)
	}
	a, b := lf.Float(), rf.Float()
	switch op {
	case "+":
		return sqltypes.NewFloat(a + b), nil
	case "-":
		return sqltypes.NewFloat(a - b), nil
	case "*":
		return sqltypes.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(a / b), nil
	case "%":
		if int64(b) == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(float64(int64(a) % int64(b))), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-insensitively (matching H2's default collation behaviour for the
// paper's examples). It keeps one backtrack point, the most recent '%': on
// a mismatch that '%' absorbs one more rune and matching resumes after it.
// Earlier '%'s never need revisiting, so the cost is O(len(s)·len(pattern))
// instead of exponential in the number of '%'s.
func likeMatch(s, pattern string) bool {
	s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	si, pi := 0, 0
	starP, starS := -1, 0 // pattern index after the last '%', and where its run ends in s
	for si < len(s) {
		if pi < len(pattern) {
			switch pc, pn := utf8.DecodeRuneInString(pattern[pi:]); pc {
			case '%':
				pi++
				starP, starS = pi, si
				continue
			case '_':
				_, sn := utf8.DecodeRuneInString(s[si:])
				si, pi = si+sn, pi+1
				continue
			default:
				if sc, sn := utf8.DecodeRuneInString(s[si:]); sc == pc {
					si, pi = si+sn, pi+pn
					continue
				}
			}
		}
		if starP < 0 {
			return false
		}
		_, sn := utf8.DecodeRuneInString(s[starS:])
		starS += sn
		si, pi = starS, starP
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
