// Package exec implements CrowdDB's vectorized streaming executor: the
// classic relational operators plus the paper's three crowd operators
// (§3.2.1) — CrowdProbe (sourcing missing values and new tuples),
// CrowdJoin (index nested-loop join that solicits matching tuples), and
// CrowdCompare (crowd-answered CROWDEQUAL predicates and CROWDORDER
// sorting). Crowd answers are always memorized in the store so a repeated
// query never re-asks the crowd.
//
// # Operator contract
//
// Operators compose into a pull-based pipeline that moves rows in
// batches (row vectors) instead of one row per virtual call:
//
//	Open(ctx)      acquires resources and (for blocking operators)
//	               consumes the input; it must leave the operator ready
//	               to produce.
//	NextBatch(ctx) returns the next batch of result rows. End of stream
//	               is (nil, nil); a non-nil batch holds at least one row.
//	               The *Batch and its Rows slice header are OWNED BY THE
//	               PRODUCER and are only valid until the next call to
//	               NextBatch or Close on that operator — consumers that
//	               need the set of rows must copy the headers out (see
//	               drainInput). The Row values inside are immutable once
//	               handed over and MAY be retained by the consumer.
//	Close(ctx)     releases resources, stops any background workers, and
//	               reports feedback (observed selectivities) to the
//	               catalog. Close must be called even after an error.
//
// Row ownership: a Row is read-only from the moment an operator hands it
// over. Scans, index lookups and the DML candidate fetch return the
// store's committed version images themselves, shared with the store and
// every concurrent reader, not copies (see storage.Store.GetAt). An
// operator that needs a different row builds a new one — projection,
// join output, aggregate output — and code that must edit a row in place
// clones it first, as CrowdProbe does before writing a crowd answer into
// a CNULL. TestReadPathsLeaveStoredImagesUntouched (internal/core)
// fingerprints every stored image around each read path to enforce this.
//
// Batch sizing is per-statement (Ctx.BatchSize, DefaultBatchSize when
// unset). Operators reuse one batch buffer across NextBatch calls, so a
// steady-state pipeline allocates no per-batch memory.
//
// Streaming semantics: scans, filters, projections, joins (probe side),
// and limits produce rows incrementally. Blocking operators (sort,
// aggregate) consume their input in Open but stream their output.  The
// crowd operators stream as human work settles: CROWDORDER emits the
// settled prefix of the breadth-first quicksort after each comparison
// round (most-preferred rows appear before the full order is resolved),
// and a CROWDEQUAL filter emits each buffered row as soon as every
// comparison it depends on has a quorum — without waiting for the other
// rows' groups. The crowd *scheduling* order (claims, HIT-group posts,
// collections) is independent of batch size and emission timing, which
// keeps seeded replays bit-identical to the row-at-a-time executor.
//
// Early stop: operators that can cut upstream work short once a
// downstream quota is filled implement EarlyStopper; limitOp signals it
// the moment its Nth row is produced, which stops parallel scan workers
// instead of letting them fan out full shard scans whose rows would be
// discarded.
//
// # Expressions
//
// Every operator compiles the expressions it evaluates once per Open
// (compile.go): column references bind to ordinals of the operator's
// input schema and each operator's kernel is chosen up front, so a row
// costs a chain of closure calls, not a walk of the parser tree with a
// by-name column lookup. Conditions compile to three-valued predicates
// that build no Value per row. A compiled closure keeps no mutable state,
// so one compiled predicate may be shared across goroutines: the parallel
// scan's workers all run their scan's single compiled filter. Code that
// runs on worker goroutines compiles without the crowd and subquery hooks
// (compileEnv), which touch per-statement state.
package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// Row is an executor tuple.
type Row = storage.Row

// Operator is a batch-at-a-time streaming iterator. See the package
// comment for the full contract (ownership, reuse, EOF, early stop).
type Operator interface {
	Schema() []plan.Col
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close(ctx *Ctx) error
}

// ---------------------------------------------------------------------------
// SeqScan: stored-table scan with pushed filter and stop-after. Small
// tables snapshot in bulk (one lock acquisition per shard, no per-row
// store round-trips) and filter lazily per batch; large tables on a
// sharded store fan out one streaming worker per shard and merge by
// ascending row ID, which IS global insertion order (IDs are allocated
// from one per-table counter), so the parallel scan emits byte-identical
// output to the sequential one. Workers observe the early-stop signal:
// a filled LIMIT quota stops them mid-shard.

// DefaultParallelScanMinRows is the table size (catalog estimate) below
// which a scan stays sequential: fan-out overhead beats the win on small
// tables, and the paper's crowd workloads live well under it.
const DefaultParallelScanMinRows = 2048

type seqScan struct {
	node    *plan.Scan
	filter  predFn // node.Filter, compiled at Open
	rows    []Row
	ids     []storage.RowID // lazy (stop-after) path only
	pos     int
	out     int64
	scanned int64
	stopped bool
	buf     Batch
	par     *parallelScanRun
	peakBuf int64
}

func (s *seqScan) Schema() []plan.Col { return s.node.Schema() }

func (s *seqScan) Open(ctx *Ctx) error {
	s.rows, s.ids, s.pos, s.out, s.scanned, s.stopped, s.par = nil, nil, 0, 0, 0, false, nil
	s.filter = compilePred(s.node.Filter, s.node.Schema(), compileEnv{})
	if parallelEligible(ctx, s.node) {
		// Lazy fan-out: workers start at the first NextBatch, so an
		// early stop that lands before any demand skips the scan work
		// entirely.
		s.par = newParallelScanRun(ctx, s.node, s.filter)
		return nil
	}
	if s.node.StopAfter >= 0 {
		// The scan may stop far short of the table: fetch IDs only and
		// look rows up lazily so a filled quota costs O(quota) lookups,
		// not a snapshot of the whole table.
		ids, err := ctx.Store.ScanAt(s.node.Table.Name, ctx.snapTS())
		if err != nil {
			return err
		}
		s.ids = ids
		s.peakBuf = int64(len(ids))
		return nil
	}
	_, rows, err := ctx.Store.ScanRowsAt(s.node.Table.Name, ctx.snapTS())
	if err != nil {
		return err
	}
	s.rows = rows
	s.peakBuf = int64(len(rows))
	return nil
}

// parallelEligible gates the fan-out: never when a stop-after could end
// the scan early (the sequential path stops scanning the moment the
// quota fills, and the selectivity feedback must see the same counts),
// and never below the size threshold.
func parallelEligible(ctx *Ctx, node *plan.Scan) bool {
	if node.StopAfter >= 0 || ctx.Store.NumShards() < 2 {
		return false
	}
	min := ctx.ParallelScanMinRows
	if min == 0 {
		min = DefaultParallelScanMinRows
	}
	return min > 0 && node.Table.RowCount() >= int64(min)
}

// StopEarly implements EarlyStopper: the sequential path simply stops
// producing (it is already lazy per batch); the parallel path signals
// the shard workers so in-flight filtering halts mid-shard.
func (s *seqScan) StopEarly() {
	s.stopped = true
	if s.par != nil {
		s.par.stop()
	}
}

func (s *seqScan) NextBatch(ctx *Ctx) (*Batch, error) {
	if s.stopped {
		return nil, nil
	}
	if s.par != nil {
		return s.par.nextBatch(ctx, &s.buf)
	}
	lazy := s.ids != nil
	s.buf.reset()
	limit := ctx.batchSize()
	for len(s.buf.Rows) < limit {
		if s.node.StopAfter >= 0 && s.out >= s.node.StopAfter {
			break
		}
		var row Row
		if lazy {
			if s.pos >= len(s.ids) {
				break
			}
			got, ok := ctx.Store.GetAt(s.node.Table.Name, s.ids[s.pos], ctx.snapTS())
			s.pos++
			if !ok {
				continue
			}
			row = got
		} else {
			if s.pos >= len(s.rows) {
				break
			}
			row = s.rows[s.pos]
			s.pos++
		}
		ctx.Stats.RowsScanned++
		s.scanned++
		keep, err := s.filter.keep(row)
		if err != nil {
			return nil, err
		}
		if keep {
			s.out++
			s.buf.Rows = append(s.buf.Rows, row)
		}
	}
	if len(s.buf.Rows) == 0 {
		return nil, nil
	}
	return &s.buf, nil
}

func (s *seqScan) Close(ctx *Ctx) error {
	if s.par != nil {
		scanned, kept, complete := s.par.finish()
		ctx.Stats.RowsScanned += int(scanned)
		s.scanned, s.out = scanned, kept
		// Feed the observed selectivity back only when every shard ran to
		// completion: a partial (early-stopped) scan's counts depend on
		// worker timing and would poison the EWMA nondeterministically.
		if complete && s.node.Filter != nil && scanned > 0 {
			s.node.Table.ObserveFilter(scanned, kept)
		}
		return nil
	}
	// Feed the observed predicate selectivity back to the cost model.
	if s.node.Filter != nil && s.scanned > 0 {
		s.node.Table.ObserveFilter(s.scanned, s.out)
	}
	return nil
}

func (s *seqScan) bufferedRows() int64 {
	if s.par != nil {
		return s.par.buffered()
	}
	return s.peakBuf
}

// ---------------------------------------------------------------------------
// Parallel scan fan-out: one streaming worker per shard, k-way merged by
// ascending row ID.

// parallelChunkRows is the granularity at which shard workers hand
// filtered rows to the merger and check the stop signal.
const parallelChunkRows = 256

type shardChunk struct {
	ids     []storage.RowID
	rows    []Row
	scanned int64
	kept    int64
	err     error
}

// shardCursor is the merger's view of one shard's stream.
type shardCursor struct {
	ch   chan shardChunk
	cur  shardChunk
	pos  int
	done bool
}

type parallelScanRun struct {
	node    *plan.Scan
	filter  predFn // shared read-only by every worker
	at      int64
	store   *storage.Store
	started bool
	stopped atomic.Bool
	stopCh  chan struct{}
	stopOne sync.Once
	wg      sync.WaitGroup
	curs    []*shardCursor
	scanned atomic.Int64
	kept    atomic.Int64
	eofAll  bool
	maxBuf  atomic.Int64
}

func newParallelScanRun(ctx *Ctx, node *plan.Scan, filter predFn) *parallelScanRun {
	return &parallelScanRun{
		node:   node,
		filter: filter,
		at:     ctx.snapTS(), // one timestamp for every shard: a consistent cut
		store:  ctx.Store,
		stopCh: make(chan struct{}),
	}
}

func (p *parallelScanRun) stop() {
	p.stopped.Store(true)
	p.stopOne.Do(func() { close(p.stopCh) })
}

func (p *parallelScanRun) start() {
	n := p.store.NumShards()
	p.curs = make([]*shardCursor, n)
	for i := 0; i < n; i++ {
		p.curs[i] = &shardCursor{ch: make(chan shardChunk, 2)}
		p.wg.Add(1)
		go p.worker(i, p.curs[i].ch)
	}
	p.started = true
}

// worker scans one shard, applies the pushed filter, and streams
// filtered chunks to the merger in ascending row-ID order. It checks the
// stop signal between chunks (and on every handoff), so a filled LIMIT
// quota halts the remaining filter work instead of producing rows that
// would be discarded.
func (p *parallelScanRun) worker(shard int, ch chan shardChunk) {
	defer p.wg.Done()
	defer close(ch)
	send := func(c shardChunk) bool {
		p.scanned.Add(c.scanned)
		p.kept.Add(c.kept)
		select {
		case ch <- c:
			return true
		case <-p.stopCh:
			return false
		}
	}
	ids, rows, err := p.store.ScanShardRowsAt(p.node.Table.Name, shard, p.at)
	if err != nil {
		send(shardChunk{err: err})
		return
	}
	p.maxBuf.Add(int64(len(rows)))
	var c shardChunk
	for j, row := range rows {
		c.scanned++
		keep, err := p.filter.keep(row)
		if err != nil {
			c.err = err
			send(c)
			return
		}
		if keep {
			c.kept++
			c.ids = append(c.ids, ids[j])
			c.rows = append(c.rows, row)
		}
		if len(c.rows) >= parallelChunkRows {
			if !send(c) {
				return
			}
			c = shardChunk{}
		}
	}
	if c.scanned > 0 || len(c.rows) > 0 {
		send(c)
	}
}

// advance ensures the cursor holds a current row or is marked done.
func (c *shardCursor) advance() error {
	for !c.done && c.pos >= len(c.cur.rows) {
		chunk, ok := <-c.ch
		if !ok {
			c.done = true
			return nil
		}
		if chunk.err != nil {
			c.done = true
			return chunk.err
		}
		c.cur, c.pos = chunk, 0
	}
	return nil
}

// nextBatch merges the shard streams by ascending row ID into buf.
// Ascending ID across shards reconstructs insertion order exactly, so
// seeded replays stay bit-identical to the sequential scan.
func (p *parallelScanRun) nextBatch(ctx *Ctx, buf *Batch) (*Batch, error) {
	if !p.started {
		p.start()
	}
	buf.reset()
	limit := ctx.batchSize()
	for len(buf.Rows) < limit {
		best := -1
		var bestID storage.RowID
		for i, c := range p.curs {
			if err := c.advance(); err != nil {
				return nil, err
			}
			if c.done {
				continue
			}
			if id := c.cur.ids[c.pos]; best < 0 || id < bestID {
				best, bestID = i, id
			}
		}
		if best < 0 {
			p.eofAll = true
			break
		}
		c := p.curs[best]
		buf.Rows = append(buf.Rows, c.cur.rows[c.pos])
		c.pos++
	}
	if len(buf.Rows) == 0 {
		return nil, nil
	}
	return buf, nil
}

// finish stops the workers, waits them out (no goroutine leaks), and
// reports (scanned, kept, complete): complete is true only when every
// shard was filtered to the end and merged to EOF — the condition under
// which the counts are deterministic.
func (p *parallelScanRun) finish() (scanned, kept int64, complete bool) {
	if !p.started {
		return 0, 0, false
	}
	p.stopOne.Do(func() { close(p.stopCh) })
	p.wg.Wait()
	return p.scanned.Load(), p.kept.Load(), p.eofAll && !p.stopped.Load()
}

func (p *parallelScanRun) buffered() int64 { return p.maxBuf.Load() }

// ---------------------------------------------------------------------------
// Filter (with CrowdCompare support for crowd predicates)

type filterOp struct {
	node    *plan.Filter
	input   Operator
	crowd   bool
	stream  *equalStream // crowd mode: quorum-streaming CROWDEQUAL state
	stopped bool
	cond    predFn // node.Cond, compiled at Open
	buf     Batch
}

func (f *filterOp) Schema() []plan.Col { return f.input.Schema() }

func (f *filterOp) Open(ctx *Ctx) error {
	if err := f.input.Open(ctx); err != nil {
		return err
	}
	f.stream, f.stopped = nil, false
	schema := f.Schema()
	f.cond = compilePred(f.node.Cond, schema, compileEnv{crowdEqual: cachedEqualResolver(ctx), exec: ctx})
	if !f.crowd {
		return nil
	}
	// CrowdFilter: drain the input, batch-resolve every CROWDEQUAL pair
	// in pipelined HIT groups (CrowdCompare). Collection is deferred to
	// NextBatch so rows stream out as their quorums land.
	buffered, err := drainInput(ctx, f.input, nil)
	if err != nil {
		return err
	}
	// Cost-based phase ordering: when the optimizer split off a cheap
	// (crowd-free) phase, prune with it first — rows a machine predicate
	// rejects must never cost a paid comparison. AND semantics make this
	// exact: a row failing Pre fails Cond regardless of crowd verdicts.
	if f.node.Pre != nil {
		kept := buffered[:0]
		pre := compilePred(f.node.Pre, schema, compileEnv{exec: ctx})
		for _, r := range buffered {
			keep, err := pre.keep(r)
			if err != nil {
				return err
			}
			if keep {
				kept = append(kept, r)
			}
		}
		buffered = kept
	}
	stream, err := newEqualStream(ctx, f.node.Cond, f.cond, buffered, schema)
	if err != nil {
		return err
	}
	f.stream = stream
	return nil
}

func (f *filterOp) StopEarly() {
	f.stopped = true
	stopEarly(f.input)
}

func (f *filterOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if f.stopped {
		return nil, nil
	}
	if f.crowd {
		return f.stream.nextBatch(ctx)
	}
	for {
		b, err := f.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		f.buf.reset()
		for _, r := range b.Rows {
			keep, err := f.cond.keep(r)
			if err != nil {
				return nil, err
			}
			if keep {
				f.buf.Rows = append(f.buf.Rows, r)
			}
		}
		if len(f.buf.Rows) > 0 {
			return &f.buf, nil
		}
	}
}

func (f *filterOp) Close(ctx *Ctx) error {
	if f.stream != nil {
		f.stream.close(ctx)
	}
	return f.input.Close(ctx)
}

func (f *filterOp) bufferedRows() int64 {
	if f.stream != nil {
		return int64(len(f.stream.rows))
	}
	return 0
}

// ---------------------------------------------------------------------------
// Project

type projectOp struct {
	node  *plan.Project
	input Operator
	items []evalFn // node.Items, compiled at Open
	buf   Batch
}

func (p *projectOp) Schema() []plan.Col { return p.node.Schema() }

func (p *projectOp) Open(ctx *Ctx) error {
	if err := p.input.Open(ctx); err != nil {
		return err
	}
	env := compileEnv{crowdEqual: cachedEqualResolver(ctx), exec: ctx}
	schema := p.input.Schema()
	p.items = make([]evalFn, len(p.node.Items))
	for i, it := range p.node.Items {
		p.items[i] = compileValue(it.Expr, schema, env)
	}
	return nil
}

func (p *projectOp) StopEarly() { stopEarly(p.input) }

func (p *projectOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := p.input.NextBatch(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() == 0 {
		return nil, nil
	}
	p.buf.reset()
	// One value slab per batch; each output row is a capacity-capped
	// window into it, so a consumer that appends to a row cannot spill
	// into its neighbour.
	w := len(p.items)
	slab := make([]sqltypes.Value, len(b.Rows)*w)
	for ri, r := range b.Rows {
		out := Row(slab[ri*w : (ri+1)*w : (ri+1)*w])
		for i, item := range p.items {
			v, err := item(r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		p.buf.Rows = append(p.buf.Rows, out)
	}
	return &p.buf, nil
}

func (p *projectOp) Close(ctx *Ctx) error { return p.input.Close(ctx) }

// ---------------------------------------------------------------------------
// Joins

// nlJoin is the general nested-loop join (inner, cross, left outer) with an
// arbitrary ON condition; the right side is buffered, the left streams.
type nlJoin struct {
	node  *plan.Join
	left  Operator
	right Operator

	rightRows []Row
	leftBatch *Batch
	lpos      int
	cur       Row
	rpos      int
	matched   bool
	on        predFn // node.On over the combined schema, compiled at Open
	width     int    // combined row width, for NULL-padding unmatched LEFT rows
	scratch   Row    // candidate pair under test
	buf       Batch
}

func (j *nlJoin) Schema() []plan.Col { return j.node.Schema() }

func (j *nlJoin) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	rows, err := drainInput(ctx, j.right, nil)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.leftBatch, j.lpos, j.cur, j.rpos, j.matched = nil, 0, nil, 0, false
	schema := j.node.Schema()
	j.on, j.width = compilePred(j.node.On, schema, compileEnv{}), len(schema)
	return nil
}

func (j *nlJoin) StopEarly() { stopEarly(j.left) }

// nextLeft pulls the next probe-side row through the batch pipeline.
func (j *nlJoin) nextLeft(ctx *Ctx) (Row, error) {
	for j.leftBatch == nil || j.lpos >= len(j.leftBatch.Rows) {
		b, err := j.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		j.leftBatch, j.lpos = b, 0
	}
	r := j.leftBatch.Rows[j.lpos]
	j.lpos++
	return r, nil
}

func (j *nlJoin) next(ctx *Ctx) (Row, error) {
	for {
		if j.cur == nil {
			l, err := j.nextLeft(ctx)
			if err != nil || l == nil {
				return nil, err
			}
			j.cur, j.rpos, j.matched = l, 0, false
		}
		for j.rpos < len(j.rightRows) {
			r := j.rightRows[j.rpos]
			j.rpos++
			combined, ok, err := joinRow(j.on, &j.scratch, j.cur, r)
			if err != nil {
				return nil, err
			}
			if ok {
				j.matched = true
				return combined, nil
			}
		}
		// Right side exhausted for this left row.
		if j.node.Type == parser.JoinLeft && !j.matched {
			out := make(Row, j.width)
			copy(out, j.cur)
			for i := len(j.cur); i < len(out); i++ {
				out[i] = sqltypes.Null()
			}
			j.cur = nil
			return out, nil
		}
		j.cur = nil
	}
}

func (j *nlJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	j.buf.reset()
	limit := ctx.batchSize()
	for len(j.buf.Rows) < limit {
		r, err := j.next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		j.buf.Rows = append(j.buf.Rows, r)
	}
	if len(j.buf.Rows) == 0 {
		return nil, nil
	}
	return &j.buf, nil
}

func (j *nlJoin) Close(ctx *Ctx) error {
	if err := j.left.Close(ctx); err != nil {
		return err
	}
	return j.right.Close(ctx)
}

func (j *nlJoin) bufferedRows() int64 { return int64(len(j.rightRows)) }

// hashJoin handles inner equi-joins: it hashes the right input on the join
// key and streams the left. The build table is pre-sized from the
// optimizer's cardinality estimate for the build side (plan.Join.BuildRows)
// so bulk builds do not rehash their way up from an empty map.
type hashJoin struct {
	node     *plan.Join
	left     Operator
	right    Operator
	leftKey  parser.Expr
	rightKey parser.Expr
	residual parser.Expr

	table map[string][]Row
	built int64
	cur   Row
	bkt   []Row
	bpos  int

	// Compiled at Open: the key over each input and the residual over
	// the combined schema.
	lkey, rkey evalFn
	res        predFn
	scratch    Row    // candidate pair under test
	key        []byte // join key, rebuilt in place per row

	leftBatch *Batch
	lpos      int
	buf       Batch
}

func (j *hashJoin) Schema() []plan.Col { return j.node.Schema() }

// buildSizeHint converts the optimizer's build-side row estimate into a
// map pre-size, clamped so a wild estimate cannot pre-allocate
// unboundedly.
func (j *hashJoin) buildSizeHint() int {
	const maxHint = 1 << 20
	est := int(j.node.BuildRows)
	if est < 0 {
		return 0
	}
	if est > maxHint {
		return maxHint
	}
	return est
}

func (j *hashJoin) Open(ctx *Ctx) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string][]Row, j.buildSizeHint())
	j.built = 0
	j.lkey = compileValue(j.leftKey, j.left.Schema(), compileEnv{})
	j.rkey = compileValue(j.rightKey, j.right.Schema(), compileEnv{})
	j.res = compilePred(j.residual, j.node.Schema(), compileEnv{})
	for {
		b, err := j.right.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			v, err := j.rkey(r)
			if err != nil {
				return err
			}
			if v.IsUnknown() {
				continue // unknown keys never join
			}
			j.key = storage.AppendIndexKey(j.key[:0], v)
			j.table[string(j.key)] = append(j.table[string(j.key)], r)
			j.built++
		}
	}
	j.leftBatch, j.lpos, j.cur, j.bkt, j.bpos = nil, 0, nil, nil, 0
	return nil
}

func (j *hashJoin) StopEarly() { stopEarly(j.left) }

func (j *hashJoin) nextLeft(ctx *Ctx) (Row, error) {
	for j.leftBatch == nil || j.lpos >= len(j.leftBatch.Rows) {
		b, err := j.left.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		j.leftBatch, j.lpos = b, 0
	}
	r := j.leftBatch.Rows[j.lpos]
	j.lpos++
	return r, nil
}

func (j *hashJoin) next(ctx *Ctx) (Row, error) {
	for {
		for j.bpos < len(j.bkt) {
			r := j.bkt[j.bpos]
			j.bpos++
			combined, ok, err := joinRow(j.res, &j.scratch, j.cur, r)
			if err != nil {
				return nil, err
			}
			if ok {
				return combined, nil
			}
		}
		l, err := j.nextLeft(ctx)
		if err != nil || l == nil {
			return nil, err
		}
		v, err := j.lkey(l)
		if err != nil {
			return nil, err
		}
		if v.IsUnknown() {
			continue
		}
		j.cur = l
		j.key = storage.AppendIndexKey(j.key[:0], v)
		j.bkt = j.table[string(j.key)]
		j.bpos = 0
	}
}

func (j *hashJoin) NextBatch(ctx *Ctx) (*Batch, error) {
	j.buf.reset()
	limit := ctx.batchSize()
	for len(j.buf.Rows) < limit {
		r, err := j.next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		j.buf.Rows = append(j.buf.Rows, r)
	}
	if len(j.buf.Rows) == 0 {
		return nil, nil
	}
	return &j.buf, nil
}

func (j *hashJoin) Close(ctx *Ctx) error {
	if err := j.left.Close(ctx); err != nil {
		return err
	}
	return j.right.Close(ctx)
}

func (j *hashJoin) bufferedRows() int64 { return j.built }

// joinRow tests the pair (l, r) against cond (nil accepts every pair)
// and returns the joined row (left columns, then right) when it passes.
// The candidate is assembled in the operator's scratch row, so a rejected
// pair allocates nothing and a kept one costs exactly one allocation.
func joinRow(cond predFn, scratch *Row, l, r Row) (Row, bool, error) {
	*scratch = append(append((*scratch)[:0], l...), r...)
	ok, err := cond.keep(*scratch)
	if err != nil || !ok {
		return nil, false, err
	}
	return slices.Clone(*scratch), true, nil
}

// ---------------------------------------------------------------------------
// Sort (plain and crowd-backed)

type sortOp struct {
	node  *plan.Sort
	input Operator
	// limit bounds the output to the first limit rows of the sorted
	// order when ≥ 0: Build sets it to N+OFFSET when a LIMIT sits
	// directly on this sort, and the plain path then keeps only that many
	// rows instead of sorting its whole input. -1 means unbounded.
	limit int64

	rows    []Row
	sorter  *crowdSorter // non-nil while a CROWDORDER sort is streaming
	emitted int
	buf     Batch
}

func (s *sortOp) Schema() []plan.Col { return s.input.Schema() }

func (s *sortOp) Open(ctx *Ctx) error {
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	s.rows, s.sorter, s.emitted = nil, nil, 0
	// Split keys: a CROWDORDER key delegates to the crowd sort; other keys
	// sort conventionally. A crowd key must be the only key.
	for _, k := range s.node.Keys {
		if parser.HasCrowdFunc(k.Expr) {
			if len(s.node.Keys) != 1 {
				return fmt.Errorf("exec: CROWDORDER cannot be combined with other sort keys")
			}
			rows, err := drainInput(ctx, s.input, nil)
			if err != nil {
				return err
			}
			s.rows = rows
			sorter, err := newCrowdSorter(ctx, s.rows, s.Schema(), k)
			if err != nil {
				return err
			}
			if k.Desc {
				// DESC reverses the final order, so the settled ASC
				// prefix is the *suffix* of the output: stream nothing
				// until the sort completes (matches the materializing
				// executor exactly).
				if err := sorter.run(); err != nil {
					return err
				}
				s.rows = sorter.permuted()
				reverseRows(s.rows)
				return nil
			}
			// ASC streams: NextBatch drives comparison rounds and emits
			// the settled prefix as it grows.
			s.sorter = sorter
			return nil
		}
	}
	if s.limit >= 0 {
		return s.topK(ctx)
	}
	return s.plainSort(ctx)
}

func reverseRows(rows []Row) {
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
}

// sortEntry is one row with its evaluated sort keys and its input
// position, the tie-breaker that makes the order stable.
type sortEntry struct {
	row  Row
	keys []sqltypes.Value
	seq  int
}

// sortKeys evaluates the sort keys of one row into dst.
type sortKeys struct {
	keys []parser.OrderItem
	fns  []evalFn // keys[i].Expr, compiled
}

func newSortKeys(keys []parser.OrderItem, schema []plan.Col) *sortKeys {
	k := &sortKeys{keys: keys, fns: make([]evalFn, len(keys))}
	for i, key := range keys {
		k.fns[i] = compileValue(key.Expr, schema, compileEnv{})
	}
	return k
}

func (k *sortKeys) eval(r Row, dst []sqltypes.Value) error {
	for i, fn := range k.fns {
		v, err := fn(r)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// compare orders two evaluated key tuples (DESC keys reversed).
func (k *sortKeys) compare(a, b []sqltypes.Value) int {
	for i, key := range k.keys {
		c := sqltypes.SortCompare(a[i], b[i])
		if key.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// entryCmp is the total order the sort emits: keys, then input position.
func (k *sortKeys) entryCmp(a, b *sortEntry) int {
	if c := k.compare(a.keys, b.keys); c != 0 {
		return c
	}
	return a.seq - b.seq
}

// plainSort materializes the input and stable-sorts it, evaluating every
// row's keys once into one shared buffer.
func (s *sortOp) plainSort(ctx *Ctx) error {
	rows, err := drainInput(ctx, s.input, nil)
	if err != nil {
		return err
	}
	s.rows = rows
	sk := newSortKeys(s.node.Keys, s.Schema())
	nk := len(sk.keys)
	keys := make([]sqltypes.Value, len(rows)*nk)
	ents := make([]sortEntry, len(rows))
	for i, r := range rows {
		ents[i] = sortEntry{row: r, keys: keys[i*nk : (i+1)*nk : (i+1)*nk], seq: i}
		if err := sk.eval(r, ents[i].keys); err != nil {
			return err
		}
	}
	slices.SortFunc(ents, func(a, b sortEntry) int { return sk.entryCmp(&a, &b) })
	for i := range ents {
		s.rows[i] = ents[i].row
	}
	return nil
}

// topK streams the input through a bounded max-heap of the s.limit
// smallest entries under (keys, input position), so it holds at most
// s.limit rows and emits exactly the prefix of the stable full sort.
// Keys are evaluated into a reused scratch buffer; a row that does not
// enter the heap costs no allocation.
func (s *sortOp) topK(ctx *Ctx) error {
	h := entryHeap{sk: newSortKeys(s.node.Keys, s.Schema())}
	scratch := make([]sqltypes.Value, len(s.node.Keys))
	seq := 0
	for {
		b, err := s.input.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Rows {
			if err := h.sk.eval(r, scratch); err != nil {
				return err
			}
			switch {
			case int64(len(h.e)) < s.limit:
				h.e = append(h.e, sortEntry{row: r, keys: slices.Clone(scratch), seq: seq})
				h.up(len(h.e) - 1)
			case len(h.e) > 0 && h.sk.compare(scratch, h.e[0].keys) < 0:
				// Strictly better than the current worst: a later row
				// that ties loses on input position, so it never enters.
				copy(h.e[0].keys, scratch)
				h.e[0].row, h.e[0].seq = r, seq
				h.down(0)
			}
			seq++
		}
	}
	slices.SortFunc(h.e, func(a, b sortEntry) int { return h.sk.entryCmp(&a, &b) })
	s.rows = make([]Row, len(h.e))
	for i := range h.e {
		s.rows[i] = h.e[i].row
	}
	return nil
}

// entryHeap is a binary max-heap of sort entries: the entry that sorts
// last is on top, ready to be displaced by a better row.
type entryHeap struct {
	e  []sortEntry
	sk *sortKeys
}

func (h *entryHeap) worse(i, j int) bool { return h.sk.entryCmp(&h.e[i], &h.e[j]) > 0 }

func (h *entryHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h.e[i], h.e[p] = h.e[p], h.e[i]
		i = p
	}
}

func (h *entryHeap) down(i int) {
	for {
		w := 2*i + 1
		if w >= len(h.e) {
			return
		}
		if r := w + 1; r < len(h.e) && h.worse(r, w) {
			w = r
		}
		if !h.worse(w, i) {
			return
		}
		h.e[i], h.e[w] = h.e[w], h.e[i]
		i = w
	}
}

func (s *sortOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if s.sorter != nil {
		// Run comparison rounds until the settled prefix grows past what
		// has been emitted (or the sort completes). CROWDORDER's
		// breadth-first quicksort settles most-preferred rows first, so
		// the first rows leave while later partitions still wait on the
		// crowd.
		for !s.sorter.done() && s.sorter.settled() <= s.emitted {
			if err := s.sorter.step(); err != nil {
				return nil, err
			}
		}
		end := s.sorter.settled()
		if s.emitted >= end {
			return nil, nil // fully emitted (done, nothing left)
		}
		n := min(ctx.batchSize(), end-s.emitted)
		s.buf.reset()
		for i := s.emitted; i < s.emitted+n; i++ {
			s.buf.Rows = append(s.buf.Rows, s.rows[s.sorter.idx[i]])
		}
		s.emitted += n
		return &s.buf, nil
	}
	if s.emitted >= len(s.rows) {
		return nil, nil
	}
	n := min(ctx.batchSize(), len(s.rows)-s.emitted)
	s.buf.Rows = s.rows[s.emitted : s.emitted+n]
	s.emitted += n
	return &s.buf, nil
}

func (s *sortOp) Close(ctx *Ctx) error { return s.input.Close(ctx) }

func (s *sortOp) bufferedRows() int64 { return int64(len(s.rows)) }

// ---------------------------------------------------------------------------
// Limit / Distinct

type limitOp struct {
	node    *plan.Limit
	input   Operator
	skipped int64
	emitted int64
	buf     Batch
}

func (l *limitOp) Schema() []plan.Col { return l.input.Schema() }

func (l *limitOp) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open(ctx)
}

func (l *limitOp) StopEarly() { stopEarly(l.input) }

func (l *limitOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		if l.node.N >= 0 && l.emitted >= l.node.N {
			return nil, nil
		}
		b, err := l.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		rows := b.Rows
		if l.skipped < l.node.Offset {
			skip := l.node.Offset - l.skipped
			if skip > int64(len(rows)) {
				skip = int64(len(rows))
			}
			l.skipped += skip
			rows = rows[skip:]
		}
		if l.node.N >= 0 {
			if remaining := l.node.N - l.emitted; int64(len(rows)) >= remaining {
				rows = rows[:remaining]
				l.emitted = l.node.N
				// Quota filled: stop upstream production (parallel scan
				// workers, etc.) instead of discarding their rows.
				stopEarly(l.input)
			} else {
				l.emitted += int64(len(rows))
			}
		}
		if len(rows) == 0 {
			continue
		}
		l.buf.Rows = rows // view into the input batch: valid until our next call
		return &l.buf, nil
	}
}

func (l *limitOp) Close(ctx *Ctx) error { return l.input.Close(ctx) }

type distinctOp struct {
	input Operator
	seen  map[string]bool
	key   []byte // row key, rebuilt in place per row
	buf   Batch
}

func (d *distinctOp) Schema() []plan.Col { return d.input.Schema() }

func (d *distinctOp) Open(ctx *Ctx) error {
	d.seen = make(map[string]bool)
	return d.input.Open(ctx)
}

func (d *distinctOp) StopEarly() { stopEarly(d.input) }

func (d *distinctOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		b, err := d.input.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, nil
		}
		d.buf.reset()
		for _, r := range b.Rows {
			d.key = storage.AppendIndexKey(d.key[:0], r...)
			if !d.seen[string(d.key)] {
				d.seen[string(d.key)] = true
				d.buf.Rows = append(d.buf.Rows, r)
			}
		}
		if len(d.buf.Rows) > 0 {
			return &d.buf, nil
		}
	}
}

func (d *distinctOp) Close(ctx *Ctx) error { return d.input.Close(ctx) }

func (d *distinctOp) bufferedRows() int64 { return int64(len(d.seen)) }
