package exec

import (
	"context"
	"fmt"
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/obs"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
)

// Stats counts the executor's work; the benchmark harness reads it.
type Stats struct {
	RowsScanned int
	// ProbeRequests counts tuples whose CNULLs were sent to the crowd.
	ProbeRequests int
	// NewTupleRequests counts solicited candidate tuples.
	NewTupleRequests int
	// Comparisons counts crowd-answered comparisons this query paid for
	// (cache misses it led).
	Comparisons int
	// CacheHits counts comparisons answered from the memo.
	CacheHits int
	// SharedFlights counts comparisons resolved by adopting another
	// session's in-flight crowd question (singleflight) — answered without
	// paying the crowd again.
	SharedFlights int
	// BudgetDenied counts comparisons skipped because the budget ran out.
	BudgetDenied int
}

// Add returns the field-wise sum of two stats snapshots. Every
// aggregation site (session settlement, job resources, subquery merge)
// goes through it so a new counter cannot silently drop from one.
func (s Stats) Add(o Stats) Stats {
	s.RowsScanned += o.RowsScanned
	s.ProbeRequests += o.ProbeRequests
	s.NewTupleRequests += o.NewTupleRequests
	s.Comparisons += o.Comparisons
	s.CacheHits += o.CacheHits
	s.SharedFlights += o.SharedFlights
	s.BudgetDenied += o.BudgetDenied
	return s
}

// Ctx is the per-query execution context.
type Ctx struct {
	Store *storage.Store
	Cat   *catalog.Catalog
	// Tasks is the Task Manager; nil runs the query against stored data
	// only (crowd operators degrade to their relational cores).
	Tasks *taskmgr.Manager
	// Cache memoizes crowd comparisons across queries.
	Cache *CompareCache
	// CompareBudget caps crowd comparisons per query (0 = unlimited,
	// negative = already exhausted by an enclosing query); beyond it,
	// CROWDORDER falls back to a deterministic label order.
	CompareBudget int
	// RunSubquery executes an uncorrelated IN-subquery and returns its
	// single column's values; the engine installs it (nil = subqueries
	// unsupported in this context).
	RunSubquery func(sel *parser.Select) ([]sqltypes.Value, error)
	// ParallelScanMinRows overrides the table-size threshold for
	// fanning a sequential scan out across shards (0 = the default,
	// DefaultParallelScanMinRows; negative = never parallelize).
	ParallelScanMinRows int
	// SnapshotTS pins every stored-data read (scans, index probes, point
	// gets) of this statement to one MVCC snapshot: the statement sees
	// exactly the rows committed at that timestamp, however long it runs
	// and whatever commits meanwhile. 0 means unpinned — each read sees
	// the latest committed data (legacy behavior for hand-built
	// contexts). Crowd write-backs during the statement commit at later
	// timestamps and are therefore invisible to the statement itself.
	SnapshotTS int64
	// Context carries the statement's cancellation signal end-to-end:
	// operators check it between rows, and the crowd operators stop
	// posting new HIT groups and unwind their crowd waits when it fires
	// (nil = never cancelled). Queued submissions are withdrawn; groups
	// already live on the platform are left to settle.
	Context context.Context
	// Progress, when set, receives a stats snapshot from the executing
	// goroutine each time a crowd operator commits to paid work (probe,
	// solicitation, or comparison batches) — the jobs API reports "cents
	// spent so far" from it without racing on Stats.
	Progress func(Stats)
	Stats    Stats

	// Trace, when set, records this statement's execution as a span
	// tree: Build wraps every operator in an instrumented shell, and the
	// crowd operators open a span per HIT-group interaction. Nil leaves
	// the raw operators in place — a traced run and an untraced run make
	// bit-identical crowd decisions.
	Trace *obs.Trace
	// Span is the parent new spans attach under; the instrumented
	// operator shells push/pop it around delegated calls so crowd spans
	// nest under the operator that caused them.
	Span *obs.Span
	// OpStats, when non-nil, collects per-plan-node actuals (rows out,
	// wall time, crowd work) for EXPLAIN ANALYZE. Counts are inclusive
	// of child operators.
	OpStats map[plan.Node]*OpStats

	// BatchSize is the rows-per-batch target of the vectorized pipeline
	// (0 = DefaultBatchSize). Batch size changes emission granularity
	// only, never results or crowd scheduling.
	BatchSize int
	// OpMetrics, when non-nil, receives each instrumented operator's
	// final accounting at Close (rows/sec, peak buffered rows) — the
	// engine aggregates it into /metrics per operator type.
	OpMetrics OpMetricsSink

	subqMemo map[*parser.InExpr][]sqltypes.Value
}

// snapTS is the MVCC read timestamp for stored-data access: the pinned
// snapshot when set, the store's current watermark otherwise.
func (c *Ctx) snapTS() int64 {
	if c.SnapshotTS != 0 {
		return c.SnapshotTS
	}
	return c.Store.VisibleTS()
}

// context returns the statement context (Background when unset).
func (c *Ctx) context() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

// Canceled reports the statement's cancellation error, if any.
func (c *Ctx) Canceled() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// noteProgress publishes a stats snapshot to the Progress observer.
func (c *Ctx) noteProgress() {
	if c.Progress != nil {
		c.Progress(c.Stats)
	}
}

// subqueryValues resolves an IN-subquery once per query (uncorrelated
// subqueries are loop-invariant) and memoizes the value list.
func (c *Ctx) subqueryValues(e *parser.InExpr) ([]sqltypes.Value, error) {
	if c.RunSubquery == nil {
		return nil, fmt.Errorf("exec: IN (SELECT ...) is not supported in this context")
	}
	if vals, ok := c.subqMemo[e]; ok {
		return vals, nil
	}
	vals, err := c.RunSubquery(e.Sub)
	if err != nil {
		return nil, err
	}
	if c.subqMemo == nil {
		c.subqMemo = make(map[*parser.InExpr][]sqltypes.Value)
	}
	c.subqMemo[e] = vals
	return vals, nil
}

func (c *Ctx) budgetOK() bool {
	if c.CompareBudget < 0 {
		return false
	}
	return c.CompareBudget == 0 || c.Stats.Comparisons < c.CompareBudget
}

// ---------------------------------------------------------------------------
// CrowdCompare: CROWDEQUAL resolution

// cachedEqualResolver returns the evaluator hook for CROWDEQUAL: cache
// first, then a single-pair crowd task (CrowdFilter prefetches batches, so
// this path is the cold fallback, e.g. CROWDEQUAL in a SELECT list). The
// cache claim collapses identical questions from concurrent sessions into
// one crowd task.
func cachedEqualResolver(ctx *Ctx) crowdEqualFn {
	if ctx.Cache == nil {
		return nil
	}
	return func(question, l, r string) (sqltypes.Value, error) {
		// A follower whose leader abandons retries and, at the latest on
		// the second pass, leads (or budget-denies) itself.
		for attempt := 0; attempt < 3; attempt++ {
			if err := ctx.Canceled(); err != nil {
				return sqltypes.Value{}, err
			}
			claim := ctx.Cache.ClaimEqual(question, l, r)
			if claim.Hit {
				ctx.Stats.CacheHits++
				return sqltypes.NewBool(claim.Value == "yes"), nil
			}
			if !claim.Leader {
				fsp := ctx.startCrowdSpan("crowd:compare_equal")
				fsp.SetAttr("role", "follower")
				if v, ok := claim.WaitCtx(ctx.context()); ok {
					ctx.Stats.SharedFlights++
					fsp.SetAttr("adopted", "true")
					fsp.End()
					return sqltypes.NewBool(v == "yes"), nil
				}
				fsp.SetAttr("adopted", "false")
				fsp.End()
				continue
			}
			if ctx.Tasks == nil || !ctx.budgetOK() {
				claim.Abandon()
				if ctx.Tasks != nil {
					ctx.Stats.BudgetDenied++
				}
				return sqltypes.Null(), nil
			}
			sp := ctx.startCrowdSpan("crowd:compare_equal")
			sp.SetAttr("role", "leader")
			sp.SetInt("pairs", 1)
			call, err := ctx.Tasks.CompareEqualAsync(question, []taskmgr.ComparePair{{Left: l, Right: r}})
			if err != nil {
				sp.SetAttr("error", err.Error())
				sp.End()
				claim.Abandon()
				return sqltypes.Value{}, err
			}
			ctx.Stats.Comparisons++
			ctx.noteProgress()
			ds, err := call.WaitCtx(ctx.context())
			if err != nil {
				if call.Abort() {
					// Withdrawn before it reached the platform: nothing
					// was committed, so nothing is charged.
					ctx.Stats.Comparisons--
				}
				sp.SetAttr("error", err.Error())
				sp.End()
				claim.Abandon()
				return sqltypes.Value{}, err
			}
			d := ds[0]
			finishGroupSpan(sp, call.Telemetry(), d.Total, quorumCount(ds))
			if d.Total == 0 {
				claim.Abandon()
				return sqltypes.Null(), nil
			}
			same := quality.Normalize(d.Value) == "yes"
			ctx.Cache.PutEqual(question, l, r, same) // resolves the claim
			return sqltypes.NewBool(same), nil
		}
		return sqltypes.Null(), nil
	}
}

// crowdEqualCall is one CROWDEQUAL occurrence in an expression, its
// operands compiled over the filter's schema.
type crowdEqualCall struct {
	question evalFn // nil = default question
	l, r     evalFn
}

func collectCrowdEqualCalls(e parser.Expr, schema []plan.Col) []crowdEqualCall {
	var calls []crowdEqualCall
	compile := func(x parser.Expr) evalFn { return compileValue(x, schema, compileEnv{}) }
	parser.WalkExprs(e, func(x parser.Expr) {
		switch n := x.(type) {
		case *parser.BinaryExpr:
			if n.Op == "~=" {
				calls = append(calls, crowdEqualCall{l: compile(n.L), r: compile(n.R)})
			}
		case *parser.FuncCall:
			if n.Name == "CROWDEQUAL" {
				c := crowdEqualCall{l: compile(n.Args[0]), r: compile(n.Args[1])}
				if len(n.Args) == 3 {
					c.question = compile(n.Args[2])
				}
				calls = append(calls, c)
			}
		}
	})
	return calls
}

// pendingPair is one deduplicated CROWDEQUAL comparison this query leads.
type pendingPair struct {
	question string
	l, r     string
	key      string
}

// eqDispatch is one posted CROWDEQUAL HIT group awaiting collection.
type eqDispatch struct {
	question string
	batch    []pendingPair
	call     *taskmgr.CompareCall
	span     *obs.Span
}

// equalStream is the CrowdFilter's quorum-streaming state machine. It
// batch-resolves every CROWDEQUAL pair the condition needs across the
// buffered rows — the CrowdCompare batching the paper's operators do —
// but instead of blocking until all groups settle, it tracks which pairs
// each row depends on and emits the maximal ready prefix of rows after
// each group's quorum lands. Pairs another session is already asking are
// not re-posted: their flights are adopted after this query's own groups
// resolve (singleflight), in a final phase before the stalled tail rows
// evaluate.
//
// The crowd-facing call sequence (claims in row-major order, all groups
// submitted before any is collected, collections in submission order,
// leader claims abandoned before follower adoption) is EXACTLY the
// blocking prefetch's — only row emission timing differs, which keeps
// seeded replays bit-identical. Rows are evaluated strictly in input
// order; evaluating a resolved row touches only the in-memory cache, so
// interleaving evaluations between collections is scheduling-invisible.
type equalStream struct {
	cond predFn // the filter condition, crowd resolver attached
	rows []Row
	// rowKeys[i] lists the pair keys row i needs that were unresolved at
	// claim time; the row is ready once all are in resolved (or after
	// finalization, when eval-time retries handle the leftovers).
	rowKeys    [][]string
	resolved   map[string]bool
	dispatched []eqDispatch
	collected  int
	leaders    []Claim
	followers  []Claim
	released   bool
	finalized  bool
	nextRow    int
	buf        Batch
}

// newEqualStream claims and dispatches every needed comparison (the
// submit-all-before-collect half of the CrowdCompare batching); quorum
// collection happens lazily in nextBatch.
func newEqualStream(ctx *Ctx, condExpr parser.Expr, cond predFn, rows []Row, schema []plan.Col) (*equalStream, error) {
	es := &equalStream{cond: cond, rows: rows, resolved: map[string]bool{}}
	if ctx.Tasks == nil || ctx.Cache == nil {
		es.finalized = true
		return es, nil
	}
	calls := collectCrowdEqualCalls(condExpr, schema)
	if len(calls) == 0 {
		es.finalized = true
		return es, nil
	}
	es.rowKeys = make([][]string, len(rows))
	seen := map[string]bool{}
	var todo []pendingPair
	for i, row := range rows {
		for _, call := range calls {
			lv, err := call.l(row)
			if err != nil {
				es.abandonLeaders()
				return nil, err
			}
			rv, err := call.r(row)
			if err != nil {
				es.abandonLeaders()
				return nil, err
			}
			if lv.IsUnknown() || rv.IsUnknown() || sqltypes.Equal(lv, rv) {
				continue
			}
			question := ""
			if call.question != nil {
				qv, err := call.question(row)
				if err != nil {
					es.abandonLeaders()
					return nil, err
				}
				question = qv.String()
			}
			l, r := lv.String(), rv.String()
			k := pairKey(question, l, r)
			if seen[k] {
				if !es.resolved[k] {
					es.rowKeys[i] = append(es.rowKeys[i], k)
				}
				continue
			}
			seen[k] = true
			claim := ctx.Cache.ClaimEqual(question, l, r)
			if claim.Hit {
				ctx.Stats.CacheHits++
				es.resolved[k] = true
				continue
			}
			if !claim.Leader {
				// Another session's flight: adopted in the final phase.
				es.followers = append(es.followers, claim)
				es.rowKeys[i] = append(es.rowKeys[i], k)
				continue
			}
			if !ctx.budgetOK() {
				claim.Abandon()
				ctx.Stats.BudgetDenied++
				// Denied pairs evaluate deterministically (CNULL) with no
				// crowd interaction: the row need not wait for them.
				es.resolved[k] = true
				continue
			}
			es.leaders = append(es.leaders, claim)
			todo = append(todo, pendingPair{question: question, l: l, r: r, key: k})
			ctx.Stats.Comparisons++
			es.rowKeys[i] = append(es.rowKeys[i], k)
		}
	}
	// Group by question (HIT groups share one question text), then submit
	// every group before collecting any: big single-question batches are
	// split so several groups overlap on the platform (async pipelining).
	byQ := map[string][]pendingPair{}
	var qOrder []string
	for _, p := range todo {
		if _, ok := byQ[p.question]; !ok {
			qOrder = append(qOrder, p.question)
		}
		byQ[p.question] = append(byQ[p.question], p)
	}
	// Pairs charged at claim time but never submitted (cancellation or a
	// dispatch error before their batch went out) are refunded on every
	// early return: only work that reached the scheduler is committed.
	undispatched := len(todo)
	ctx.noteProgress()
	for _, q := range qOrder {
		// Each question's batch is split into up to one window of groups;
		// the scheduler queues whatever exceeds the global in-flight cap.
		for _, batch := range chunkSlice(byQ[q], asyncWindow(ctx)) {
			if err := ctx.Canceled(); err != nil {
				ctx.Stats.Comparisons -= undispatched
				es.drainFrom(ctx, 0)
				es.collected = len(es.dispatched)
				es.abandonLeaders()
				return nil, err
			}
			pairs := make([]taskmgr.ComparePair, len(batch))
			for i, p := range batch {
				pairs[i] = taskmgr.ComparePair{Left: p.l, Right: p.r}
			}
			sp := ctx.startCrowdSpan("crowd:compare_equal")
			sp.SetAttr("role", "leader")
			sp.SetInt("pairs", int64(len(batch)))
			call, err := ctx.Tasks.CompareEqualAsync(q, pairs)
			if err != nil {
				sp.SetAttr("error", err.Error())
				sp.End()
				ctx.Stats.Comparisons -= undispatched
				es.drainFrom(ctx, 0)
				es.collected = len(es.dispatched)
				es.abandonLeaders()
				return nil, err
			}
			undispatched -= len(batch)
			es.dispatched = append(es.dispatched, eqDispatch{question: q, batch: batch, call: call, span: sp})
		}
	}
	return es, nil
}

// nextBatch emits the next batch of passing rows, settling just enough
// crowd work to unblock the row at the front: rows whose pairs all have
// verdicts evaluate and stream out while later groups are still open on
// the platform. Evaluation is strictly in input order (the streamed
// output is a prefix-stable reordering of nothing).
func (es *equalStream) nextBatch(ctx *Ctx) (*Batch, error) {
	limit := ctx.batchSize()
	for {
		es.buf.reset()
		for es.nextRow < len(es.rows) && len(es.buf.Rows) < limit && es.rowReady(es.nextRow) {
			row := es.rows[es.nextRow]
			es.nextRow++
			keep, err := es.cond.keep(row)
			if err != nil {
				return nil, err
			}
			if keep {
				es.buf.Rows = append(es.buf.Rows, row)
			}
		}
		if len(es.buf.Rows) > 0 {
			return &es.buf, nil
		}
		if es.nextRow >= len(es.rows) {
			return nil, nil
		}
		// The front row is stalled on an open pair: settle more crowd work.
		if es.collected < len(es.dispatched) {
			if err := es.collectNext(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if err := es.finish(ctx); err != nil {
			return nil, err
		}
	}
}

// rowReady reports whether every pair row i depends on has settled.
func (es *equalStream) rowReady(i int) bool {
	if es.finalized {
		return true
	}
	for _, k := range es.rowKeys[i] {
		if !es.resolved[k] {
			return false
		}
	}
	return true
}

// collectNext waits out the oldest open HIT group and memoizes its
// quorum verdicts (which resolves this session's claims for follower
// sessions and marks the pairs' dependent rows ready).
func (es *equalStream) collectNext(ctx *Ctx) error {
	c := es.dispatched[es.collected]
	ds, err := c.call.WaitCtx(ctx.context())
	if err != nil {
		c.span.SetAttr("error", err.Error())
		es.drainFrom(ctx, es.collected)
		es.collected = len(es.dispatched)
		es.abandonLeaders()
		es.finalized = true
		return err
	}
	es.collected++
	finishGroupSpan(c.span, c.call.Telemetry(), answersTotal(ds), quorumCount(ds))
	for i, d := range ds {
		if d.Total == 0 {
			// No quorum: the pair stays open and its rows stall to the
			// final phase, where eval retries it (a fresh single-pair
			// group) exactly as the blocking executor did.
			continue
		}
		ctx.Cache.PutEqual(c.question, c.batch[i].l, c.batch[i].r, quality.Normalize(d.Value) == "yes")
		es.resolved[c.batch[i].key] = true
	}
	return nil
}

// finish releases unresolved leader claims and adopts follower flights,
// after which every row is ready: the tail evaluates with eval-time
// retries for pairs that never got a verdict.
func (es *equalStream) finish(ctx *Ctx) error {
	// Release leader claims whose groups yielded no quorum (their answers
	// were never memoized) BEFORE waiting on foreign flights: a session
	// symmetric to this one may be blocked on exactly those claims.
	es.abandonLeaders()
	// Adopt the answers other sessions are sourcing. This must come after
	// every own claim resolved: two sessions following each other's pairs
	// before fulfilling their own would deadlock.
	adopted := 0
	if len(es.followers) > 0 {
		asp := ctx.startCrowdSpan("crowd:adopt_followers")
		asp.SetInt("flights", int64(len(es.followers)))
		defer func() {
			asp.SetInt("adopted", int64(adopted))
			asp.End()
		}()
	}
	for _, cl := range es.followers {
		if err := ctx.Canceled(); err != nil {
			es.finalized = true
			return err
		}
		if _, ok := cl.WaitCtx(ctx.context()); ok {
			ctx.Stats.SharedFlights++
			adopted++
		}
		// ok=false: the leader abandoned (error or no quorum) or this
		// query was cancelled; the pair resolves — or stays unknown — at
		// eval time.
	}
	es.followers = nil
	es.finalized = true
	return nil
}

// abandonLeaders releases every leader claim this stream still holds.
// Memoizing an answer resolved a claim already; abandoning is a no-op
// for those and unblocks follower sessions for the rest (errors, no
// quorum). Idempotent.
func (es *equalStream) abandonLeaders() {
	if es.released {
		return
	}
	es.released = true
	for _, cl := range es.leaders {
		cl.Abandon()
	}
}

// drainFrom waits out the open groups from index k on. An error abandons
// their results, but the groups are already live: wait them out so they
// don't keep occupying the scheduler's window after this query unwinds.
// A cancelled query must not block on crowd waits: queued submissions
// are withdrawn (and their charge refunded — they never reached the
// platform) and posted groups left for the next driver to settle.
func (es *equalStream) drainFrom(ctx *Ctx, k int) {
	for _, c := range es.dispatched[k:] {
		c.span.SetAttr("drained", "true")
		c.span.End()
		if ctx.Canceled() != nil {
			if c.call.Abort() {
				ctx.Stats.Comparisons -= len(c.batch)
			}
			continue
		}
		c.call.Wait() //nolint:errcheck // draining after a prior error
	}
}

// close settles the stream's outstanding crowd state when the query ends
// before the stream drained (error, cancellation, early stop).
func (es *equalStream) close(ctx *Ctx) {
	if es.collected < len(es.dispatched) {
		es.drainFrom(ctx, es.collected)
		es.collected = len(es.dispatched)
	}
	es.abandonLeaders()
}

// asyncWindow is the Task Manager's in-flight window: how many HIT groups
// the pipelined operators should aim to keep live at once.
func asyncWindow(ctx *Ctx) int {
	if ctx.Tasks == nil {
		return 1
	}
	if w := ctx.Tasks.Config().MaxInFlight; w > 0 {
		return w
	}
	return 1
}

// chunkSlice splits items into at most n contiguous, near-equal chunks.
func chunkSlice[T any](items []T, n int) [][]T {
	if len(items) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	size := (len(items) + n - 1) / n
	var out [][]T
	for lo := 0; lo < len(items); lo += size {
		out = append(out, items[lo:min(lo+size, len(items))])
	}
	return out
}

// ---------------------------------------------------------------------------
// CrowdCompare: CROWDORDER sorting

// newCrowdSorter builds the incremental CROWDORDER quicksort over rows:
// most-preferred first, one pivot-comparison HIT group per open segment
// per round, results memoized in the compare cache. The caller drives it
// with step() (one breadth-first round) and reads the settled prefix
// between rounds, or run()s it to completion.
func newCrowdSorter(ctx *Ctx, rows []Row, schema []plan.Col, key parser.OrderItem) (*crowdSorter, error) {
	fc, ok := key.Expr.(*parser.FuncCall)
	if !ok || fc.Name != "CROWDORDER" {
		return nil, fmt.Errorf("exec: unsupported crowd sort key %s", key.Expr)
	}
	question := "Which of the two items ranks higher?"
	if len(fc.Args) == 2 {
		q, ok := fc.Args[1].(*parser.Literal)
		if !ok {
			return nil, fmt.Errorf("exec: CROWDORDER question must be a string literal")
		}
		question = q.Val.Str()
	}
	// Render each row's label (the first CROWDORDER argument). Labels that
	// fail to resolve (e.g. the paper's free variable `p`) fall back to the
	// row's first column rendering.
	labels := make([]string, len(rows))
	label := compileValue(fc.Args[0], schema, compileEnv{})
	for i, r := range rows {
		v, err := label(r)
		if err != nil || v.IsUnknown() {
			labels[i] = rows[i][0].String()
		} else {
			labels[i] = v.String()
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	s := &crowdSorter{ctx: ctx, question: question, labels: labels, rows: rows, idx: idx}
	if len(idx) > 1 {
		s.frontier = []segRange{{0, len(idx)}}
	}
	return s, nil
}

// segRange is one open quicksort segment: idx[lo:hi] still needs
// partitioning. The frontier holds open segments in ascending position
// order; everything before frontier[0].lo is in final sorted position.
type segRange struct{ lo, hi int }

type crowdSorter struct {
	ctx      *Ctx
	question string
	labels   []string
	rows     []Row
	idx      []int // permutation under construction: idx[i] = source row of sorted position i
	frontier []segRange
}

// done reports whether the permutation is fully sorted.
func (s *crowdSorter) done() bool { return len(s.frontier) == 0 }

// settled is the length of the finalized prefix of idx: positions before
// the first open segment can never change again (partitioning only
// permutes within a segment), so their rows are safe to emit while the
// rest of the sort is still waiting on the crowd.
func (s *crowdSorter) settled() int {
	if len(s.frontier) == 0 {
		return len(s.idx)
	}
	return s.frontier[0].lo
}

// run drives the sort to completion (the blocking DESC path).
func (s *crowdSorter) run() error {
	for !s.done() {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// permuted returns the rows in sorted order (valid once done).
func (s *crowdSorter) permuted() []Row {
	sorted := make([]Row, len(s.rows))
	for i, j := range s.idx {
		sorted[i] = s.rows[j]
	}
	return sorted
}

// step runs one breadth-first quicksort round: it batches one
// pivot-comparison HIT group per open segment and submits them all
// before collecting any, so sibling partitions' crowd waits overlap
// (log n rounds, each a window of concurrent groups on the platform).
// Pairs another session is already asking are adopted from its flight
// instead of re-posted (singleflight); their verdicts are awaited after
// this round's own groups resolve and before any segment partitions.
func (s *crowdSorter) step() error {
	type segCall struct {
		seg   segRange
		pivot int
		pairs []taskmgr.ComparePair
		call  *taskmgr.CompareCall
		span  *obs.Span
	}
	var round []segCall
	var leaderClaims, followers []Claim
	// Abandon any leader claim whose answer was not memoized (post
	// error or no quorum) so follower sessions never hang; memoized
	// pairs make this a no-op.
	releaseRound := func() {
		for _, cl := range leaderClaims {
			cl.Abandon()
		}
	}
	drainFrom := func(k int) {
		for _, sc := range round[k:] {
			if sc.call == nil {
				continue
			}
			sc.span.SetAttr("drained", "true")
			sc.span.End()
			if s.ctx.Canceled() != nil {
				if sc.call.Abort() {
					// Withdrawn before reaching the platform: refund.
					s.ctx.Stats.Comparisons -= len(sc.pairs)
				}
				continue
			}
			sc.call.Wait() //nolint:errcheck // draining after a prior error
		}
	}
	// roundSeen dedups label pairs across sibling segments: with
	// repeated labels two segments can need the same comparison in one
	// round, and the cache is only written back at collection time.
	roundSeen := map[string]bool{}
	for _, sr := range s.frontier {
		seg := s.idx[sr.lo:sr.hi]
		// Cancellation stops the sort before another group is posted:
		// claims this round already took are released so follower
		// sessions never hang on a cancelled leader.
		if err := s.ctx.Canceled(); err != nil {
			drainFrom(0)
			releaseRound()
			return err
		}
		pivot := seg[len(seg)/2]
		pairs, segLeaders, segFollowers := s.pivotPairs(seg, pivot, roundSeen)
		leaderClaims = append(leaderClaims, segLeaders...)
		followers = append(followers, segFollowers...)
		sc := segCall{seg: sr, pivot: pivot, pairs: pairs}
		if len(sc.pairs) > 0 {
			s.ctx.noteProgress()
			sp := s.ctx.startCrowdSpan("crowd:compare_order")
			sp.SetAttr("role", "leader")
			sp.SetInt("pairs", int64(len(sc.pairs)))
			call, err := s.ctx.Tasks.CompareOrderAsync(s.question, sc.pairs)
			if err != nil {
				sp.SetAttr("error", err.Error())
				sp.End()
				// This segment's pairs never went out: refund them.
				s.ctx.Stats.Comparisons -= len(sc.pairs)
				drainFrom(0)
				releaseRound()
				return err
			}
			sc.call = call
			sc.span = sp
		}
		round = append(round, sc)
	}
	// Collect every own group, memoizing verdicts (which resolves this
	// session's claims for follower sessions).
	for k, sc := range round {
		if sc.call == nil {
			continue
		}
		ds, err := sc.call.WaitCtx(s.ctx.context())
		if err != nil {
			sc.span.SetAttr("error", err.Error())
			drainFrom(k)
			releaseRound()
			return err
		}
		finishGroupSpan(sc.span, sc.call.Telemetry(), answersTotal(ds), quorumCount(ds))
		for i, d := range ds {
			if d.Total == 0 {
				continue
			}
			s.ctx.Cache.PutOrder(s.question, sc.pairs[i].Left, sc.pairs[i].Right, d.Value)
		}
	}
	releaseRound()
	// Adopt verdicts other sessions are sourcing. Waiting only after
	// all own groups are memoized avoids deadlocking with a session
	// symmetric to this one.
	for _, cl := range followers {
		if err := s.ctx.Canceled(); err != nil {
			return err
		}
		if _, ok := cl.WaitCtx(s.ctx.context()); ok {
			s.ctx.Stats.SharedFlights++
		}
		// ok=false: the leader abandoned; prefers falls back to the
		// deterministic label order for this pair.
	}
	// Partition every segment in place around its pivot. Children are
	// appended in position order, keeping the frontier sorted so
	// settled() is exactly the finalized prefix.
	var next []segRange
	for _, sc := range round {
		seg := s.idx[sc.seg.lo:sc.seg.hi]
		var before, after []int
		for _, i := range seg {
			if i == sc.pivot {
				continue
			}
			if s.prefers(i, sc.pivot) {
				before = append(before, i)
			} else {
				after = append(after, i)
			}
		}
		n := copy(seg, before)
		seg[n] = sc.pivot
		copy(seg[n+1:], after)
		if n > 1 {
			next = append(next, segRange{sc.seg.lo, sc.seg.lo + n})
		}
		if sc.seg.lo+n+1 < sc.seg.hi-1 {
			next = append(next, segRange{sc.seg.lo + n + 1, sc.seg.hi})
		}
	}
	s.frontier = next
	return nil
}

// pivotPairs gathers the comparisons a segment needs against its pivot:
// uncached, in-budget pairs this session will post (with their leader
// claims), plus follower claims on pairs other sessions have in flight.
// roundSeen carries the pairs already claimed by sibling segments this
// round — a duplicate is dropped here and resolved from the cache once
// the sibling's group is collected (collection always precedes the
// partition step).
func (s *crowdSorter) pivotPairs(seg []int, pivot int, roundSeen map[string]bool) (pairs []taskmgr.ComparePair, leaders, followers []Claim) {
	for _, i := range seg {
		if i == pivot || s.labels[i] == s.labels[pivot] {
			continue
		}
		key := pairKey(s.question, s.labels[i], s.labels[pivot])
		if roundSeen[key] {
			continue
		}
		claim := s.ctx.Cache.ClaimOrder(s.question, s.labels[i], s.labels[pivot])
		if claim.Hit {
			s.ctx.Stats.CacheHits++
			continue
		}
		if !claim.Leader {
			roundSeen[key] = true
			followers = append(followers, claim)
			continue
		}
		if s.ctx.Tasks == nil || !s.ctx.budgetOK() {
			claim.Abandon()
			s.ctx.Stats.BudgetDenied++
			continue
		}
		roundSeen[key] = true
		leaders = append(leaders, claim)
		pairs = append(pairs, taskmgr.ComparePair{Left: s.labels[i], Right: s.labels[pivot]})
		s.ctx.Stats.Comparisons++
	}
	return pairs, leaders, followers
}

// prefers reports whether item i ranks before item j: by crowd verdict when
// available, by label order otherwise (deterministic fallback for ties,
// missing answers, and exhausted budgets).
func (s *crowdSorter) prefers(i, j int) bool {
	li, lj := s.labels[i], s.labels[j]
	if li == lj {
		return i < j
	}
	if w, ok := s.ctx.Cache.GetOrder(s.question, li, lj); ok {
		if w == li {
			return true
		}
		if w == lj {
			return false
		}
	}
	return li < lj
}

// ---------------------------------------------------------------------------
// CrowdProbe: scan with CNULL instantiation and tuple solicitation

type crowdProbeScan struct {
	node *plan.Scan
	out  batchEmitter
}

func (s *crowdProbeScan) Schema() []plan.Col { return s.node.Schema() }

func (s *crowdProbeScan) Open(ctx *Ctx) error {
	s.out = batchEmitter{}
	name := s.node.Table.Name
	ids, stored, err := ctx.Store.ScanRowsAt(name, ctx.snapTS())
	if err != nil {
		return err
	}
	var rows []Row
	var rowIDs []storage.RowID
	// Pre-filter on conjuncts that do not touch this table's crowd columns:
	// predicate push-down shrinks the probe set (experiment E10's win).
	schema := s.node.Schema()
	preExpr, postNeeded := splitCrowdFilter(s.node)
	preFilter := compilePred(preExpr, schema, compileEnv{})
	filter := compilePred(s.node.Filter, schema, compileEnv{})
	scanned := int64(0)
	for i, row := range stored {
		ctx.Stats.RowsScanned++
		scanned++
		keep, err := preFilter.keep(row)
		if err != nil {
			return err
		}
		if keep {
			rows = append(rows, row)
			rowIDs = append(rowIDs, ids[i])
		}
	}
	if s.node.Filter != nil && scanned > 0 {
		// Cost-model feedback: observed selectivity of the pushed predicate.
		s.node.Table.ObserveFilter(scanned, int64(len(rows)))
	}

	// Stop-after push-down (§3.2.2): when the whole filter ran pre-probe,
	// the surviving rows are final, so the bound applies BEFORE the crowd
	// is asked — this is exactly the rule's crowd-task saving.
	if !postNeeded && !s.node.Table.Crowd && s.node.StopAfter >= 0 && int64(len(rows)) > s.node.StopAfter {
		rows = rows[:s.node.StopAfter]
		rowIDs = rowIDs[:s.node.StopAfter]
	}

	// CrowdProbe phase 1: instantiate CNULLs of the asked crowd columns.
	if ctx.Tasks != nil && len(s.node.AskColumns) > 0 {
		if err := probeCNulls(ctx, s.node, rows, rowIDs); err != nil {
			return err
		}
	}

	// CrowdProbe phase 2: solicit new tuples for CROWD tables (open world).
	if ctx.Tasks != nil && s.node.Table.Crowd {
		acquired, err := solicitTuples(ctx, s.node, filter, rows)
		if err != nil {
			return err
		}
		rows = append(rows, acquired...)
	}

	// Final filter (now that CNULLs are instantiated) and stop-after for
	// closed-world tables.
	var out []Row
	for _, row := range rows {
		keep := true
		if postNeeded {
			keep, err = filter.keep(row)
			if err != nil {
				return err
			}
		}
		if keep {
			out = append(out, row)
			if !s.node.Table.Crowd && s.node.StopAfter >= 0 && int64(len(out)) >= s.node.StopAfter {
				break
			}
		}
	}
	s.out.rows = out
	return nil
}

// splitCrowdFilter separates the scan filter into a pre-probe part (no
// crowd columns referenced) and reports whether a post-probe pass is
// needed.
func splitCrowdFilter(node *plan.Scan) (parser.Expr, bool) {
	if node.Filter == nil {
		return nil, false
	}
	crowdCols := map[string]bool{}
	for _, c := range node.Table.Columns {
		if c.Crowd {
			crowdCols[strings.ToLower(c.Name)] = true
		}
	}
	var pre parser.Expr
	post := false
	for _, conj := range splitConjuncts(node.Filter) {
		touches := false
		parser.WalkExprs(conj, func(x parser.Expr) {
			if cr, ok := x.(*parser.ColumnRef); ok && crowdCols[strings.ToLower(cr.Name)] {
				touches = true
			}
		})
		if touches {
			post = true
		} else {
			pre = andExpr(pre, conj)
		}
	}
	return pre, post
}

func splitConjuncts(e parser.Expr) []parser.Expr {
	if be, ok := e.(*parser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []parser.Expr{e}
}

func andExpr(a, b parser.Expr) parser.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return &parser.BinaryExpr{Op: "AND", L: a, R: b}
	}
}

// probeCNulls sends batched HIT groups for every buffered row whose asked
// crowd columns hold CNULL, coerces the majority answers, writes them back
// to the row AND the store (memorization), and updates statistics. A
// filled row is a private copy that replaces rows[i]: the slice's rows
// start out as the store's shared version images, which stay untouched. The
// request batch is split into up to MaxInFlight probe groups that are all
// submitted before any is collected, so their crowd waits overlap. Rows
// whose answers miss quorum are re-posted once (the operators' built-in
// quality control, §3.2.1).
func probeCNulls(ctx *Ctx, node *plan.Scan, rows []Row, rowIDs []storage.RowID) error {
	if err := probeCNullsOnce(ctx, node, rows, rowIDs); err != nil {
		return err
	}
	// Retry round for rows that still hold CNULL in an asked column.
	return probeCNullsOnce(ctx, node, rows, rowIDs)
}

func probeCNullsOnce(ctx *Ctx, node *plan.Scan, rows []Row, rowIDs []storage.RowID) error {
	t := node.Table
	var reqs []taskmgr.ProbeRequest
	var reqRow []int
	for i, row := range rows {
		var ask []string
		for _, col := range node.AskColumns {
			if ci := t.ColumnIndex(col); ci >= 0 && row[ci].IsCNull() {
				ask = append(ask, col)
			}
		}
		if len(ask) == 0 {
			continue
		}
		known := make(map[string]sqltypes.Value, len(t.Columns))
		for ci, c := range t.Columns {
			known[strings.ToLower(c.Name)] = row[ci]
		}
		reqs = append(reqs, taskmgr.ProbeRequest{Known: known, Ask: ask})
		reqRow = append(reqRow, i)
	}
	if len(reqs) == 0 {
		return nil
	}
	ctx.Stats.ProbeRequests += len(reqs)
	ctx.noteProgress()

	// Pipelined dispatch: post every chunk, then collect in order.
	type probeChunk struct {
		lo   int // offset of the chunk's first request in reqs
		n    int
		call *taskmgr.ProbeCall
		span *obs.Span
	}
	var chunks []probeChunk
	drainFrom := func(k int) {
		for _, c := range chunks[k:] {
			c.span.SetAttr("drained", "true")
			c.span.End()
			if ctx.Canceled() != nil {
				if c.call.Abort() {
					// Withdrawn before reaching the platform: refund.
					ctx.Stats.ProbeRequests -= c.n
				}
				continue
			}
			c.call.Wait() //nolint:errcheck // draining after a prior error
		}
	}
	undispatched := len(reqs)
	lo := 0
	for _, chunk := range chunkSlice(reqs, asyncWindow(ctx)) {
		if err := ctx.Canceled(); err != nil {
			ctx.Stats.ProbeRequests -= undispatched
			drainFrom(0)
			return err
		}
		sp := ctx.startCrowdSpan("crowd:probe")
		sp.SetAttr("table", t.Name)
		sp.SetInt("requests", int64(len(chunk)))
		call, err := ctx.Tasks.ProbeValuesAsync(t.Name, chunk)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			ctx.Stats.ProbeRequests -= undispatched
			drainFrom(0)
			return err
		}
		undispatched -= len(chunk)
		chunks = append(chunks, probeChunk{lo: lo, n: len(chunk), call: call, span: sp})
		lo += len(chunk)
	}
	for k, c := range chunks {
		results, err := c.call.WaitCtx(ctx.context())
		if err != nil {
			c.span.SetAttr("error", err.Error())
			drainFrom(k)
			return err
		}
		answers, quorums := 0, 0
		for _, res := range results {
			for _, d := range res.Decisions {
				answers += d.Total
				if d.Quorum {
					quorums++
				}
			}
		}
		finishGroupSpan(c.span, c.call.Telemetry(), answers, quorums)
		for ri, res := range results {
			i := reqRow[c.lo+ri]
			changed := false
			for col, d := range res.Decisions {
				if d.Total == 0 || !d.Quorum {
					continue // no usable answer: the value stays CNULL
				}
				ci := t.ColumnIndex(col)
				v, err := sqltypes.NewString(strings.TrimSpace(d.Value)).Coerce(t.Columns[ci].Type)
				if err != nil {
					continue // untypable answer: stays CNULL
				}
				if !changed {
					// rows[i] is the store's shared version image: fill a
					// private copy, never the image other readers hold.
					rows[i] = rows[i].Clone()
				}
				rows[i][ci] = v
				changed = true
				t.AdjustCNull(t.Columns[ci].Name, -1)
			}
			if changed {
				// Memorize: the crowd is never asked the same value twice.
				if err := ctx.Store.Update(t.Name, rowIDs[i], rows[i]); err != nil {
					drainFrom(k + 1)
					return err
				}
			}
		}
	}
	return nil
}

// solicitTuples asks the crowd for new tuples of a CROWD table, bounded by
// probe keys (expected cardinality) and/or the pushed stop-after; filter
// is node.Filter compiled.
func solicitTuples(ctx *Ctx, node *plan.Scan, filter predFn, existing []Row) ([]Row, error) {
	t := node.Table
	want := -1
	if len(node.ProbeKeys) > 0 {
		matching := 0
		for _, row := range existing {
			ok, err := filter.keep(row)
			if err != nil {
				return nil, err
			}
			if ok {
				matching++
			}
		}
		want = int(t.ExpectedCrowdCard()) - matching
	}
	if node.StopAfter >= 0 {
		byLimit := int(node.StopAfter) - len(existing)
		if want < 0 || byLimit < want {
			want = byLimit
		}
	}
	if want <= 0 {
		return nil, nil
	}
	prefill := make(map[string]sqltypes.Value, len(node.ProbeKeys))
	for col, v := range node.ProbeKeys {
		prefill[col] = v
	}
	ctx.Stats.NewTupleRequests += want
	ctx.noteProgress()
	sp := ctx.startCrowdSpan("crowd:new_tuples")
	sp.SetAttr("table", t.Name)
	sp.SetInt("want", int64(want))
	call, err := ctx.Tasks.NewTuplesBatchAsync(t.Name, []taskmgr.TupleRequest{{Prefill: prefill, Want: want}})
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		ctx.Stats.NewTupleRequests -= want
		return nil, err
	}
	batches, err := call.WaitCtx(ctx.context())
	if err != nil {
		if call.Abort() {
			// Withdrawn before reaching the platform: refund.
			ctx.Stats.NewTupleRequests -= want
		}
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	var candidates []map[string]string
	if len(batches) > 0 {
		candidates = batches[0]
	}
	finishGroupSpan(sp, call.Telemetry(), len(candidates), 0)
	accepted, err := insertCandidates(ctx, t, candidates)
	if err == nil && len(node.ProbeKeys) > 0 {
		// Cost-model feedback: accepted crowd tuples per solicited key.
		// Only key-driven solicitations are representative — a stop-after
		// fill ("give me 30 rows") would poison the per-key fanout EWMA.
		t.ObserveCrowdFanout(1, int64(len(accepted)))
	}
	return accepted, err
}

// insertCandidates coerces raw candidate tuples, inserts them (primary key
// deduplicates crowd contributions), and returns the accepted rows.
func insertCandidates(ctx *Ctx, t *catalog.Table, candidates []map[string]string) ([]Row, error) {
	var out []Row
	for _, cand := range candidates {
		row := make(Row, len(t.Columns))
		ok := true
		for ci, c := range t.Columns {
			raw, has := cand[strings.ToLower(c.Name)]
			if !has {
				raw = cand[c.Name]
			}
			if raw == "" || quality.IsGarbage(raw) {
				if isPKColumn(t, c.Name) {
					ok = false // unusable key: drop candidate
					break
				}
				row[ci] = sqltypes.Null()
				continue
			}
			v, err := sqltypes.NewString(strings.TrimSpace(raw)).Coerce(c.Type)
			if err != nil {
				if isPKColumn(t, c.Name) {
					ok = false
					break
				}
				row[ci] = sqltypes.Null()
				continue
			}
			row[ci] = v
		}
		if !ok {
			continue
		}
		if _, err := ctx.Store.Insert(t.Name, row); err != nil {
			// Duplicate key: another worker (or an earlier query) already
			// contributed this entity — exactly the dedup the paper's PK
			// requirement exists for.
			continue
		}
		t.AddRowCount(1)
		out = append(out, row)
	}
	return out, nil
}

func isPKColumn(t *catalog.Table, col string) bool {
	for _, pk := range t.PrimaryKey {
		if strings.EqualFold(pk, col) {
			return true
		}
	}
	return false
}

func (s *crowdProbeScan) NextBatch(ctx *Ctx) (*Batch, error) {
	return s.out.next(ctx), nil
}

func (s *crowdProbeScan) Close(*Ctx) error { return nil }

func (s *crowdProbeScan) bufferedRows() int64 { return int64(len(s.out.rows)) }

// ---------------------------------------------------------------------------
// CrowdJoin: index nested-loop join soliciting matching inner tuples

// crowdJoin implements the paper's CrowdJoin: an index nested-loop join
// whose inner is a CROWD table. For every distinct outer key it looks up
// stored matches and solicits the expected number of missing tuples with
// the join key pre-filled — all keys batched into ONE HIT group.
type crowdJoin struct {
	node     *plan.Join
	left     Operator
	scan     *plan.Scan // crowd inner
	leftKey  parser.Expr
	rightCol string
	residual parser.Expr

	out batchEmitter
}

func (j *crowdJoin) Schema() []plan.Col { return j.node.Schema() }

func (j *crowdJoin) Open(ctx *Ctx) error {
	j.out = batchEmitter{}
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	leftRows, err := drainInput(ctx, j.left, nil)
	if err != nil {
		return err
	}
	keys := make([]sqltypes.Value, len(leftRows))
	leftKey := compileValue(j.leftKey, j.left.Schema(), compileEnv{})
	for i, r := range leftRows {
		v, err := leftKey(r)
		if err != nil {
			return err
		}
		keys[i] = v
	}

	t := j.scan.Table
	rightColIdx := t.ColumnIndex(j.rightCol)

	// Index the stored inner rows by join key (and probe their CNULLs).
	ids, stored, err := ctx.Store.ScanRowsAt(t.Name, ctx.snapTS())
	if err != nil {
		return err
	}
	var innerRows []Row
	var innerIDs []storage.RowID
	innerFilter := compilePred(j.scan.Filter, j.scan.Schema(), compileEnv{})
	for i, row := range stored {
		id := ids[i]
		ctx.Stats.RowsScanned++
		keep, err := innerFilter.keep(row)
		if err != nil {
			return err
		}
		if keep {
			innerRows = append(innerRows, row)
			innerIDs = append(innerIDs, id)
		}
	}
	if ctx.Tasks != nil && len(j.scan.AskColumns) > 0 {
		if err := probeCNulls(ctx, j.scan, innerRows, innerIDs); err != nil {
			return err
		}
	}
	matches := make(map[string][]Row)
	for _, row := range innerRows {
		matches[storage.IndexKey(row[rightColIdx])] = append(matches[storage.IndexKey(row[rightColIdx])], row)
	}

	// Solicit missing inner tuples: one TupleRequest per distinct outer
	// key, all in one group.
	if ctx.Tasks != nil {
		var reqs []taskmgr.TupleRequest
		seen := map[string]bool{}
		for _, k := range keys {
			if k.IsUnknown() {
				continue
			}
			kk := storage.IndexKey(k)
			if seen[kk] {
				continue
			}
			seen[kk] = true
			want := int(t.ExpectedCrowdCard()) - len(matches[kk])
			if want <= 0 {
				continue
			}
			prefill := map[string]sqltypes.Value{strings.ToLower(j.rightCol): k}
			for col, v := range j.scan.ProbeKeys {
				prefill[col] = v
			}
			reqs = append(reqs, taskmgr.TupleRequest{Prefill: prefill, Want: want})
			ctx.Stats.NewTupleRequests += want
		}
		if len(reqs) > 0 {
			// Pipelined solicitation: split the outer keys into up to
			// MaxInFlight groups and post them all before collecting, so the
			// next batch's HITs are already live while the previous batch's
			// candidates are being inserted.
			type tupleChunk struct {
				want int // summed Want of the chunk's requests
				call *taskmgr.TupleCall
				span *obs.Span
			}
			wantOf := func(rs []taskmgr.TupleRequest) int {
				n := 0
				for _, r := range rs {
					n += r.Want
				}
				return n
			}
			var calls []tupleChunk
			drainFrom := func(k int) {
				for _, c := range calls[k:] {
					c.span.SetAttr("drained", "true")
					c.span.End()
					if ctx.Canceled() != nil {
						if c.call.Abort() {
							// Withdrawn before reaching the platform: refund.
							ctx.Stats.NewTupleRequests -= c.want
						}
						continue
					}
					c.call.Wait() //nolint:errcheck // draining after a prior error
				}
			}
			undispatched := wantOf(reqs)
			ctx.noteProgress()
			for _, chunk := range chunkSlice(reqs, asyncWindow(ctx)) {
				if err := ctx.Canceled(); err != nil {
					ctx.Stats.NewTupleRequests -= undispatched
					drainFrom(0)
					return err
				}
				sp := ctx.startCrowdSpan("crowd:join_tuples")
				sp.SetAttr("table", t.Name)
				sp.SetInt("want", int64(wantOf(chunk)))
				call, err := ctx.Tasks.NewTuplesBatchAsync(t.Name, chunk)
				if err != nil {
					sp.SetAttr("error", err.Error())
					sp.End()
					ctx.Stats.NewTupleRequests -= undispatched
					drainFrom(0)
					return err
				}
				undispatched -= wantOf(chunk)
				calls = append(calls, tupleChunk{want: wantOf(chunk), call: call, span: sp})
			}
			totalAccepted := int64(0)
			for k, c := range calls {
				batches, err := c.call.WaitCtx(ctx.context())
				if err != nil {
					c.span.SetAttr("error", err.Error())
					drainFrom(k)
					return err
				}
				got := 0
				for _, cands := range batches {
					got += len(cands)
				}
				finishGroupSpan(c.span, c.call.Telemetry(), got, 0)
				for _, cands := range batches {
					accepted, err := insertCandidates(ctx, t, cands)
					if err != nil {
						drainFrom(k + 1)
						return err
					}
					totalAccepted += int64(len(accepted))
					for _, row := range accepted {
						ok, err := innerFilter.keep(row)
						if err != nil {
							drainFrom(k + 1)
							return err
						}
						if ok {
							kk := storage.IndexKey(row[rightColIdx])
							matches[kk] = append(matches[kk], row)
						}
					}
				}
			}
			// Cost-model feedback: accepted crowd tuples per solicited key.
			t.ObserveCrowdFanout(int64(len(reqs)), totalAccepted)
		}
	}

	// Emit joined rows.
	residual := compilePred(j.residual, j.Schema(), compileEnv{})
	for i, l := range leftRows {
		if keys[i].IsUnknown() {
			continue
		}
		for _, r := range matches[storage.IndexKey(keys[i])] {
			combined := append(append(Row{}, l...), r...)
			ok, err := residual.keep(combined)
			if err != nil {
				return err
			}
			if ok {
				j.out.rows = append(j.out.rows, combined)
			}
		}
	}
	return nil
}

func (j *crowdJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	return j.out.next(ctx), nil
}

func (j *crowdJoin) Close(ctx *Ctx) error { return j.left.Close(ctx) }

func (j *crowdJoin) bufferedRows() int64 { return int64(len(j.out.rows)) }
