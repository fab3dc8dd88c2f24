package exec

import (
	"fmt"
	"math/bits"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// aggregateOp groups its input and folds every row into its group's
// accumulators as it arrives: per aggregate call a count, sums, and a
// running MIN/MAX, plus the group's first row for the non-aggregate
// items (legal because the planner enforced grouping). Input rows are
// never buffered beyond that first row. Rows fold in input order, so a
// FLOAT sum adds in the same order, and rounds identically, as summing
// the group's rows one after another.
type aggregateOp struct {
	node  *plan.Aggregate
	input Operator
	// slots maps each aggregate call the items and HAVING compute to its
	// accumulator's index within a group.
	slots  map[*parser.FuncCall]int
	calls  []*parser.FuncCall
	out    batchEmitter
	groups int64
}

// groupFn is an item or HAVING expression compiled over a folded group.
type groupFn func(*aggGroup) (sqltypes.Value, error)

// aggGroup is one group's folded state.
type aggGroup struct {
	first Row // nil only for a global aggregate over no rows
	accs  []aggAcc
}

func (a *aggregateOp) Schema() []plan.Col { return a.node.Schema() }

func (a *aggregateOp) Open(ctx *Ctx) error {
	if err := a.input.Open(ctx); err != nil {
		return err
	}
	a.out, a.groups = batchEmitter{}, 0
	schema := a.input.Schema()
	a.slots, a.calls = make(map[*parser.FuncCall]int), nil
	for _, it := range a.node.Items {
		a.collectCalls(it.Expr)
	}
	if a.node.Having != nil {
		a.collectCalls(a.node.Having)
	}
	args := make([]evalFn, len(a.calls)) // calls[i]'s argument; nil for COUNT(*)
	for i, fc := range a.calls {
		if !fc.Star {
			args[i] = compileValue(fc.Args[0], schema, compileEnv{})
		}
	}
	keyFns := make([]evalFn, len(a.node.GroupBy))
	for i, g := range a.node.GroupBy {
		keyFns[i] = compileValue(g, schema, compileEnv{})
	}
	var having groupFn
	if a.node.Having != nil {
		having = a.compileGroup(a.node.Having, schema)
	}
	items := make([]groupFn, len(a.node.Items))
	for i, it := range a.node.Items {
		items[i] = a.compileGroup(it.Expr, schema)
	}
	keyVals := make([]sqltypes.Value, len(a.node.GroupBy))
	var key []byte // the row's group key, rebuilt in place
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	for {
		b, err := a.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			for i, kf := range keyFns {
				v, err := kf(r)
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			key = storage.AppendIndexKey(key[:0], keyVals...)
			g, ok := groups[string(key)]
			if !ok {
				g = a.newGroup(r)
				groups[string(key)] = g
				order = append(order, g)
			}
			for i, fc := range a.calls {
				g.accs[i].add(fc, args[i], r)
			}
		}
	}
	// A global aggregate over zero rows still produces one row.
	if len(a.node.GroupBy) == 0 && len(order) == 0 {
		order = append(order, a.newGroup(nil))
	}
	a.groups = int64(len(order))
	for _, g := range order {
		if having != nil {
			hv, err := having(g)
			if err != nil {
				return err
			}
			if truthOfValue(hv) != tTrue {
				continue
			}
		}
		out := make(Row, len(items))
		for i, item := range items {
			v, err := item(g)
			if err != nil {
				return err
			}
			out[i] = v
		}
		a.out.rows = append(a.out.rows, out)
	}
	return nil
}

func (a *aggregateOp) newGroup(first Row) *aggGroup {
	g := &aggGroup{first: first, accs: make([]aggAcc, len(a.calls))}
	for i := range g.accs {
		g.accs[i].allInt = true
	}
	return g
}

// collectCalls registers the aggregate calls compileGroup reads: it
// walks e exactly as compileGroup does, descending only through the binary
// and unary operators that combine aggregates.
func (a *aggregateOp) collectCalls(e parser.Expr) {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		if _, seen := a.slots[fc]; !seen {
			a.slots[fc] = len(a.calls)
			a.calls = append(a.calls, fc)
		}
		return
	}
	if !exprHasAggregate(e) {
		return
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		a.collectCalls(x.L)
		a.collectCalls(x.R)
	case *parser.UnaryExpr:
		a.collectCalls(x.E)
	}
}

func (a *aggregateOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b := a.out.next(ctx)
	if b == nil {
		return nil, nil
	}
	return b, nil
}

func (a *aggregateOp) Close(ctx *Ctx) error { return a.input.Close(ctx) }

// bufferedRows counts the groups held while folding (one retained input
// row each) plus the output rows.
func (a *aggregateOp) bufferedRows() int64 { return a.groups + int64(len(a.out.rows)) }

// compileGroup compiles an item or HAVING expression over a folded
// group: aggregate calls read their accumulators, operators over
// aggregates combine the results, and everything else evaluates over the
// group's first row (NULL for a global aggregate over no rows).
func (a *aggregateOp) compileGroup(e parser.Expr, schema []plan.Col) groupFn {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		slot := a.slots[fc]
		return func(g *aggGroup) (sqltypes.Value, error) { return g.accs[slot].result(fc) }
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		if exprHasAggregate(e) {
			return binaryGroup(x.Op, a.compileGroup(x.L, schema), a.compileGroup(x.R, schema))
		}
	case *parser.UnaryExpr:
		if exprHasAggregate(e) {
			inner, op := a.compileGroup(x.E, schema), x.Op
			return func(g *aggGroup) (sqltypes.Value, error) {
				v, err := inner(g)
				if err != nil {
					return sqltypes.Value{}, err
				}
				return unaryValue(op, v)
			}
		}
	}
	f := compileValue(e, schema, compileEnv{})
	return func(g *aggGroup) (sqltypes.Value, error) {
		if g.first == nil {
			return sqltypes.Null(), nil
		}
		return f(g.first)
	}
}

// binaryGroup combines two group results: AND/OR in three-valued logic,
// comparisons with implicit conversion, any other operator as arithmetic.
func binaryGroup(op string, l, r groupFn) groupFn {
	var kernel func(l, r sqltypes.Value) (sqltypes.Value, error)
	switch op {
	case "AND", "OR":
		and := op == "AND"
		kernel = func(l, r sqltypes.Value) (sqltypes.Value, error) {
			lt, rt := truthOfValue(l), truthOfValue(r)
			if and {
				return andTruth(lt, rt).value(), nil
			}
			return orTruth(lt, rt).value(), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		cmp := newCmpOp(op)
		kernel = func(l, r sqltypes.Value) (sqltypes.Value, error) { return compareValues(cmp, l, r).value(), nil }
	default:
		kernel = func(l, r sqltypes.Value) (sqltypes.Value, error) { return evalArith(op, l, r) }
	}
	return func(g *aggGroup) (sqltypes.Value, error) {
		lv, err := l(g)
		if err != nil {
			return sqltypes.Value{}, err
		}
		rv, err := r(g)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return kernel(lv, rv)
	}
}

func exprHasAggregate(e parser.Expr) bool {
	found := false
	parser.WalkExprs(e, func(x parser.Expr) {
		if fc, ok := x.(*parser.FuncCall); ok && fc.IsAggregate() {
			found = true
		}
	})
	return found
}

// aggAcc folds one aggregate call over one group's rows. Errors are
// recorded, not returned: result reports them, so an aggregate whose
// value is never used (its group failed HAVING) never fails the query.
// An argument that fails to evaluate takes precedence over a value of
// the wrong type, wherever each occurs in the group.
type aggAcc struct {
	rows int64 // input rows (COUNT(*))
	n    int64 // non-unknown argument values: SQL aggregates skip NULL and CNULL
	// sumF is the FLOAT sum, added in input order; sumHi:sumLo is the
	// exact 128-bit INTEGER sum, meaningful while allInt holds.
	sumF   float64
	sumLo  uint64
	sumHi  int64
	allInt bool
	best   sqltypes.Value // MIN/MAX so far
	// evalErr is the first argument evaluation error; typeErr the first
	// non-numeric SUM/AVG input or incomparable MIN/MAX pair.
	evalErr error
	typeErr error
}

func (acc *aggAcc) add(fc *parser.FuncCall, arg evalFn, r Row) {
	acc.rows++
	if fc.Star || acc.evalErr != nil {
		return
	}
	v, err := arg(r)
	if err != nil {
		acc.evalErr = err
		return
	}
	if v.IsUnknown() {
		return
	}
	acc.n++
	if acc.typeErr != nil {
		return
	}
	switch fc.Name {
	case "SUM", "AVG":
		f, err := v.Coerce(sqltypes.TypeFloat)
		if err != nil {
			acc.typeErr = fmt.Errorf("exec: %s over non-numeric value %v", fc.Name, v)
			return
		}
		acc.sumF += f.Float()
		if v.Kind() != sqltypes.KindInt {
			acc.allInt = false
		} else if acc.allInt {
			i := v.Int()
			var carry uint64
			acc.sumLo, carry = bits.Add64(acc.sumLo, uint64(i), 0)
			acc.sumHi += i>>63 + int64(carry)
		}
	case "MIN", "MAX":
		if acc.n == 1 {
			acc.best = v
			return
		}
		c, ok := sqltypes.Compare(v, acc.best)
		if !ok {
			acc.typeErr = fmt.Errorf("exec: %s over incomparable values", fc.Name)
			return
		}
		if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
			acc.best = v
		}
	}
}

func (acc *aggAcc) result(fc *parser.FuncCall) (sqltypes.Value, error) {
	if fc.Star { // COUNT(*)
		return sqltypes.NewInt(acc.rows), nil
	}
	if acc.evalErr != nil {
		return sqltypes.Value{}, acc.evalErr
	}
	switch fc.Name {
	case "COUNT":
		return sqltypes.NewInt(acc.n), nil
	case "SUM", "AVG", "MIN", "MAX":
		if acc.n == 0 {
			return sqltypes.Null(), nil
		}
		if acc.typeErr != nil {
			return sqltypes.Value{}, acc.typeErr
		}
		switch {
		case fc.Name == "AVG":
			return sqltypes.NewFloat(acc.sumF / float64(acc.n)), nil
		case fc.Name != "SUM":
			return acc.best, nil
		case !acc.allInt:
			return sqltypes.NewFloat(acc.sumF), nil
		case acc.sumHi != int64(acc.sumLo)>>63:
			return sqltypes.Value{}, fmt.Errorf("exec: SUM overflows INTEGER")
		}
		return sqltypes.NewInt(int64(acc.sumLo)), nil
	}
	return sqltypes.Value{}, fmt.Errorf("exec: unknown aggregate %s", fc.Name)
}
