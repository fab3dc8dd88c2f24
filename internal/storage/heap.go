package storage

import (
	"math"
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
type heap struct {
	rows map[RowID]*versionChain
	// history holds the IDs of chains that carry a superseded or dead
	// version — the only chains GC can reclaim anything from. supersede
	// adds to it; GC removes a chain once it is back to one live version
	// or gone, and recovery's replaceAt/hardDelete remove it outright.
	history map[RowID]struct{}
	nextID  RowID
	live    int // chains whose latest version is live
}

func newHeap() *heap {
	return &heap{rows: make(map[RowID]*versionChain), history: make(map[RowID]struct{}), nextID: 1}
}

// insertVersion appends a live version beginning at ts under a
// caller-allocated (or replayed) ID. The chain may already exist with a
// dead tail when a primary-key change moved the row away and back.
func (h *heap) insertVersion(id RowID, r Row, ts int64) {
	c, ok := h.rows[id]
	if !ok {
		c = &versionChain{}
		h.rows[id] = c
	}
	if _, wasLive := c.live(); !wasLive {
		h.live++
	}
	c.versions = append(c.versions, rowVersion{row: r, begin: ts, end: tsInfinity})
	if id >= h.nextID {
		h.nextID = id + 1
	}
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
	if c, ok := h.rows[id]; ok {
		if _, wasLive := c.live(); wasLive {
			h.live--
		}
	}
	h.rows[id] = &versionChain{versions: []rowVersion{{row: r, begin: ts, end: tsInfinity}}}
	delete(h.history, id)
	h.live++
	if id >= h.nextID {
		h.nextID = id + 1
	}
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
	delete(h.rows, id)
	delete(h.history, id)
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
	for id, c := range h.rows {
		if _, ok := c.live(); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// scanIDsAt returns the IDs visible to a snapshot at ts, ascending.
func (h *heap) scanIDsAt(ts int64) []RowID {
	ids := make([]RowID, 0, len(h.rows))
	for id, c := range h.rows {
		if _, ok := c.at(ts); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
