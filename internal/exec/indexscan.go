package exec

import (
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// accessPath is an index access path for a single-table filter: the
// primary key or a single-column secondary index, pinned to a literal by
// one of the filter's `col = literal` conjuncts. The rows it fetches are
// candidates — a superset of the filter's matches — that the caller
// verifies against the full filter. SELECT scans (indexScan) and keyed
// UPDATE/DELETE share it, so literal coercion and index selection cannot
// drift apart between reads and writes.
type accessPath struct {
	// pk is true when the primary key answers the lookup; otherwise
	// indexName names the secondary index.
	pk        bool
	indexName string
	key       sqltypes.Value // the literal, coerced to the column type
}

// chooseAccessPath picks the access path for a filter over t from its
// probe keys (optimizer.ProbeKeys): a pinned single-column primary key
// first, then the first column, in table order, that leads a
// single-column secondary index. ok is false when only a sequential scan
// is guaranteed to find every match.
func chooseAccessPath(cat *catalog.Catalog, t *catalog.Table, keys map[string]sqltypes.Value) (p accessPath, ok bool) {
	if len(keys) == 0 {
		return p, false
	}
	if len(t.PrimaryKey) == 1 {
		if key, ok := probeKey(t, t.PrimaryKey[0], keys); ok {
			return accessPath{pk: true, key: key}, true
		}
	}
	for _, c := range t.Columns {
		key, ok := probeKey(t, c.Name, keys)
		if !ok {
			continue
		}
		if idx, ok := cat.IndexOn(t.Name, c.Name); ok && len(idx.Columns) == 1 {
			return accessPath{indexName: idx.Name, key: key}, true
		}
	}
	return p, false
}

// probeKey returns the literal a filter pins col to, coerced to the
// column type so its encoded key matches stored values (WHERE id = '3'
// against an INTEGER column probes 3). ok is false when col is not
// pinned, or when the evaluator's mixed-kind equality could match stored
// values whose key differs from the coerced literal's — a number or
// boolean against a STRING column ('07' = 7 holds), a boolean against a
// number (id = TRUE holds for every non-zero id) — so that only a scan
// finds every match. A literal that does not coerce keeps its own key:
// no stored value of the column can equal it.
func probeKey(t *catalog.Table, col string, keys map[string]sqltypes.Value) (sqltypes.Value, bool) {
	lit, ok := keys[strings.ToLower(col)]
	if !ok {
		return lit, false
	}
	c, ok := t.Column(col)
	if !ok {
		return lit, false
	}
	switch {
	case lit.IsUnknown() || lit.TypeOf() == c.Type:
	case c.Type == sqltypes.TypeString || c.Type == sqltypes.TypeAny:
		return lit, false
	case lit.Kind() == sqltypes.KindBool && c.Type != sqltypes.TypeBool:
		return lit, false
	}
	if cv, err := lit.Coerce(c.Type); err == nil {
		lit = cv
	}
	return lit, true
}

// fetch reads the candidate rows as a snapshot at ts sees them, in
// ascending row-ID order, with the index probe and the row copies taken
// under one lock acquisition per shard.
func (p accessPath) fetch(store *storage.Store, table string, at int64) ([]storage.RowID, []Row, error) {
	if !p.pk {
		return store.LookupIndexRowsAt(table, p.indexName, at, p.key)
	}
	if id, row, ok := store.LookupPKRowAt(table, at, p.key); ok {
		return []storage.RowID{id}, []Row{row}, nil
	}
	return nil, nil, nil
}

// FetchCandidates returns, in ascending row-ID order, every row of t
// visible at ts that a filter with the given probe keys can match: through
// the access path chooseAccessPath picks, or a full scan when there is
// none. The caller evaluates the full filter on each candidate.
func FetchCandidates(store *storage.Store, cat *catalog.Catalog, t *catalog.Table, keys map[string]sqltypes.Value, at int64) ([]storage.RowID, []Row, error) {
	if p, ok := chooseAccessPath(cat, t, keys); ok {
		return p.fetch(store, t.Name, at)
	}
	return store.ScanRowsAt(t.Name, at)
}

// indexScan serves a scan whose pushed-down filter pins an indexed column
// to a literal: the access path supplies the candidate rows, the full
// residual filter then verifies them. Chosen by Build for closed-world
// tables when an access path exists.
type indexScan struct {
	node *plan.Scan
	path accessPath

	rows []Row
	out  batchEmitter
}

func (s *indexScan) Schema() []plan.Col { return s.node.Schema() }

func (s *indexScan) Open(ctx *Ctx) error {
	s.rows, s.out = nil, batchEmitter{}
	_, candidates, err := s.path.fetch(ctx.Store, s.node.Table.Name, ctx.snapTS())
	if err != nil {
		return err
	}
	filter := compilePred(s.node.Filter, s.node.Schema(), compileEnv{})
	for _, row := range candidates {
		ctx.Stats.RowsScanned++
		keep, err := filter.keep(row)
		if err != nil {
			return err
		}
		if keep {
			s.rows = append(s.rows, row)
			if s.node.StopAfter >= 0 && int64(len(s.rows)) >= s.node.StopAfter {
				break
			}
		}
	}
	s.out.rows = s.rows
	return nil
}

func (s *indexScan) NextBatch(ctx *Ctx) (*Batch, error) {
	return s.out.next(ctx), nil
}

func (s *indexScan) Close(*Ctx) error { return nil }

func (s *indexScan) bufferedRows() int64 { return int64(len(s.rows)) }
