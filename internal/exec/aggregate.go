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
	schema []plan.Col // input schema
	out    batchEmitter
	groups int64
}

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
	a.schema = a.input.Schema()
	a.slots, a.calls = make(map[*parser.FuncCall]int), nil
	for _, it := range a.node.Items {
		a.collectCalls(it.Expr)
	}
	if a.node.Having != nil {
		a.collectCalls(a.node.Having)
	}
	keyCtx := evalCtx{schema: a.schema}
	argCtx := evalCtx{schema: a.schema}
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
			keyCtx.row = r
			for i, g := range a.node.GroupBy {
				v, err := eval(g, &keyCtx)
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
			argCtx.row = r
			for i, fc := range a.calls {
				g.accs[i].add(fc, &argCtx)
			}
		}
	}
	// A global aggregate over zero rows still produces one row.
	if len(a.node.GroupBy) == 0 && len(order) == 0 {
		order = append(order, a.newGroup(nil))
	}
	a.groups = int64(len(order))
	for _, g := range order {
		if a.node.Having != nil {
			hv, err := a.evalGroup(a.node.Having, g)
			if err != nil {
				return err
			}
			if b, unknown := boolOf(hv); unknown || !b {
				continue
			}
		}
		out := make(Row, len(a.node.Items))
		for i, it := range a.node.Items {
			v, err := a.evalGroup(it.Expr, g)
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

// collectCalls registers the aggregate calls evalGroup will ask for: it
// walks e exactly as evalGroup does, descending only through the binary
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

// evalGroup evaluates an item or HAVING expression over a folded group:
// aggregate calls read their accumulators, everything else evaluates
// over the group's first row.
func (a *aggregateOp) evalGroup(e parser.Expr, g *aggGroup) (sqltypes.Value, error) {
	if fc, ok := e.(*parser.FuncCall); ok && fc.IsAggregate() {
		return g.accs[a.slots[fc]].result(fc)
	}
	switch x := e.(type) {
	case *parser.BinaryExpr:
		if exprHasAggregate(e) {
			l, err := a.evalGroup(x.L, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := a.evalGroup(x.R, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			switch x.Op {
			case "AND", "OR":
				return evalLogic(x.Op, l, r)
			case "=", "<>", "<", "<=", ">", ">=":
				return evalBinary(&parser.BinaryExpr{Op: x.Op,
					L: &parser.Literal{Val: l}, R: &parser.Literal{Val: r}}, &evalCtx{})
			default:
				return evalArith(x.Op, l, r)
			}
		}
	case *parser.UnaryExpr:
		if exprHasAggregate(e) {
			v, err := a.evalGroup(x.E, g)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return eval(&parser.UnaryExpr{Op: x.Op, E: &parser.Literal{Val: v}}, &evalCtx{})
		}
	}
	if g.first == nil {
		return sqltypes.Null(), nil
	}
	return eval(e, &evalCtx{schema: a.schema, row: g.first})
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

func (acc *aggAcc) add(fc *parser.FuncCall, ec *evalCtx) {
	acc.rows++
	if fc.Star || acc.evalErr != nil {
		return
	}
	v, err := eval(fc.Args[0], ec)
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
