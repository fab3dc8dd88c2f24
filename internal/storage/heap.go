package storage

import (
	"math"
	"slices"
	"sort"
)

// tsInfinity marks a row version that has not been superseded or deleted:
// it is visible to every snapshot at or above its begin timestamp.
const tsInfinity = int64(math.MaxInt64)

// rowVersion is one entry of a row's version chain: the row image and the
// half-open commit-timestamp window [begin, end) during which it is the
// visible version. end == tsInfinity while the version is live.
type rowVersion struct {
	row   Row
	begin int64
	end   int64
}

// visibleAt reports whether the version is the one a snapshot at ts sees.
func (v *rowVersion) visibleAt(ts int64) bool {
	return v.begin <= ts && ts < v.end
}

// versionChain is a row's history, ordered by ascending begin timestamp.
// Writers only ever append (or stamp the last element's end); readers walk
// from the back, so the common case — reading the live version — is O(1).
type versionChain struct {
	versions []rowVersion
}

func (c *versionChain) latest() *rowVersion {
	if len(c.versions) == 0 {
		return nil
	}
	return &c.versions[len(c.versions)-1]
}

// live returns the current (not superseded, not deleted) row image.
func (c *versionChain) live() (Row, bool) {
	if v := c.latest(); v != nil && v.end == tsInfinity {
		return v.row, true
	}
	return nil, false
}

// at returns the row image a snapshot at ts sees, if any.
func (c *versionChain) at(ts int64) (Row, bool) {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].visibleAt(ts) {
			return c.versions[i].row, true
		}
		if c.versions[i].end <= ts {
			// Versions are ordered by begin; everything earlier ended
			// even sooner, so nothing below can be visible.
			return nil, false
		}
	}
	return nil, false
}

// heap is the versioned row store for one shard of a table: rows addressed
// by stable RowIDs, each holding a chain of committed versions so snapshot
// reads see the image as of their pinned timestamp while writers install
// new versions. Deleted rows keep their chain (with a finite end stamp)
// until garbage collection proves no live snapshot can still see it. IDs
// are never reused, so the WAL can refer to rows by ID across the table's
// lifetime; nextID here only tracks the high water mark for recovery.
//
// Chains are reachable two ways: by ID through the rows map (point reads
// and writes), and in ascending RowID order through the order slice,
// which is what scans walk — IDs and row images in one pass, no sort.
// Row images are immutable once installed: writers install a fresh
// version rather than edit one, so readers share them without copying.
type heap struct {
	rows map[RowID]*versionChain
	// order lists every chain in ascending RowID order. Inserts almost
	// always append (IDs are allocated monotonically per table); an
	// out-of-order arrival (a concurrent commit, a primary-key change
	// moving a row onto this shard, recovery replay) is placed by binary
	// search. A chain dropped by GC or recovery is emptied in place and
	// counted in dead; compaction removes such entries once they make up
	// half the slice.
	order []heapEntry
	dead  int
	// history holds the IDs of chains that carry a superseded or dead
	// version — the only chains GC can reclaim anything from. supersede
	// adds to it; GC removes a chain once it is back to one live version
	// or gone, and recovery's replaceAt/hardDelete remove it outright.
	history map[RowID]struct{}
	nextID  RowID
	live    int // chains whose latest version is live
}

// heapEntry is one slot of the RowID-ordered walk. A chain with no
// versions is a dropped entry awaiting compaction.
type heapEntry struct {
	id RowID
	c  *versionChain
}

func newHeap() *heap {
	return &heap{rows: make(map[RowID]*versionChain), history: make(map[RowID]struct{}), nextID: 1}
}

// addChain registers a new chain under id in both the map and the
// ordered walk. A dropped entry still holding the same ID (the row left
// this shard, was collected, and has now moved back) is reused.
func (h *heap) addChain(id RowID, c *versionChain) {
	h.rows[id] = c
	if id >= h.nextID {
		h.nextID = id + 1
	}
	n := len(h.order)
	if n == 0 || h.order[n-1].id < id {
		h.order = append(h.order, heapEntry{id: id, c: c})
		return
	}
	i := sort.Search(n, func(i int) bool { return h.order[i].id >= id })
	if i < n && h.order[i].id == id {
		h.order[i].c = c
		h.dead--
		return
	}
	h.order = slices.Insert(h.order, i, heapEntry{id: id, c: c})
}

// dropChain removes id's chain from the map and empties it, leaving its
// ordered entry for compaction.
func (h *heap) dropChain(id RowID) {
	c, ok := h.rows[id]
	if !ok {
		return
	}
	c.versions = nil
	delete(h.rows, id)
	delete(h.history, id)
	h.dead++
	if h.dead*2 > len(h.order) {
		h.compact()
	}
}

// compact removes dropped entries from the ordered walk.
func (h *heap) compact() {
	kept := h.order[:0]
	for _, e := range h.order {
		if len(e.c.versions) > 0 {
			kept = append(kept, e)
		}
	}
	clear(h.order[len(kept):])
	h.order = kept
	h.dead = 0
}

// insertVersion appends a live version beginning at ts under a
// caller-allocated (or replayed) ID. The chain may already exist with a
// dead tail when a primary-key change moved the row away and back.
func (h *heap) insertVersion(id RowID, r Row, ts int64) {
	c, ok := h.rows[id]
	if !ok {
		c = &versionChain{}
		h.addChain(id, c)
	}
	if _, wasLive := c.live(); !wasLive {
		h.live++
	}
	c.versions = append(c.versions, rowVersion{row: r, begin: ts, end: tsInfinity})
}

// get returns the live (latest committed) row image.
func (h *heap) get(id RowID) (Row, bool) {
	c, ok := h.rows[id]
	if !ok {
		return nil, false
	}
	return c.live()
}

// getAt returns the row image visible to a snapshot at ts.
func (h *heap) getAt(id RowID, ts int64) (Row, bool) {
	c, ok := h.rows[id]
	if !ok {
		return nil, false
	}
	return c.at(ts)
}

// supersede stamps the live version's end with ts (an update installing a
// replacement, or a delete). The superseded image stays readable to
// snapshots below ts until gc reclaims it. Returns the superseded row.
func (h *heap) supersede(id RowID, ts int64) (Row, bool) {
	c, ok := h.rows[id]
	if !ok {
		return nil, false
	}
	v := c.latest()
	if v == nil || v.end != tsInfinity {
		return nil, false
	}
	v.end = ts
	h.live--
	h.history[id] = struct{}{}
	return v.row, true
}

// replaceAt wipes a row's history and installs a single version — the
// recovery path, where no snapshot can predate the process.
func (h *heap) replaceAt(id RowID, r Row, ts int64) {
	versions := []rowVersion{{row: r, begin: ts, end: tsInfinity}}
	if c, ok := h.rows[id]; ok {
		if _, wasLive := c.live(); wasLive {
			h.live--
		}
		c.versions = versions
		delete(h.history, id)
	} else {
		h.addChain(id, &versionChain{versions: versions})
	}
	h.live++
}

// hardDelete removes a row and its whole history (recovery replay only).
func (h *heap) hardDelete(id RowID) bool {
	c, ok := h.rows[id]
	if !ok {
		return false
	}
	if _, wasLive := c.live(); wasLive {
		h.live--
	}
	h.dropChain(id)
	return true
}

func (h *heap) count() int { return h.live }

// retainedCount reports superseded versions still held for old snapshots.
// Only chains in the history set can hold one.
func (h *heap) retainedCount() int {
	n := 0
	for id := range h.history {
		c := h.rows[id]
		n += len(c.versions)
		if _, ok := c.live(); ok {
			n--
		}
	}
	return n
}

// scanIDs returns the IDs of all live rows in ascending order, giving
// scans a deterministic physical order (insertion order).
func (h *heap) scanIDs() []RowID {
	ids := make([]RowID, 0, h.live)
	for _, e := range h.order {
		if _, ok := e.c.live(); ok {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// scanAt walks the ordered chains once and returns the IDs and shared row
// images visible to a snapshot at ts, ascending by ID. With withRows
// false only the IDs are collected.
func (h *heap) scanAt(ts int64, withRows bool) ([]RowID, []Row) {
	ids := make([]RowID, 0, h.live)
	var rows []Row
	if withRows {
		rows = make([]Row, 0, h.live)
	}
	for _, e := range h.order {
		r, ok := e.c.at(ts)
		if !ok {
			continue
		}
		ids = append(ids, e.id)
		if withRows {
			rows = append(rows, r)
		}
	}
	return ids, rows
}
