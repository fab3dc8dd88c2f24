package storage

// Property tests for the RowID-ordered heap walk: under random inserts,
// out-of-order arrivals, cross-shard primary-key moves, deletes, GC and
// Recover replays, every scan must equal a brute-force walk of the chain
// map sorted by ID, and the ordered slice must stay sorted, complete and
// compacted.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crowddb/internal/sqltypes"
)

// checkHeapOrder verifies one heap's ordered walk: strictly ascending IDs,
// every chain of the map present under its ID, every other entry an
// emptied chain counted in dead, and dead entries never more than half.
func checkHeapOrder(t *testing.T, h *heap) {
	t.Helper()
	dead := 0
	for i, e := range h.order {
		if i > 0 && h.order[i-1].id >= e.id {
			t.Fatalf("order not strictly ascending at %d: %d then %d", i, h.order[i-1].id, e.id)
		}
		if c, ok := h.rows[e.id]; ok {
			if c != e.c {
				t.Fatalf("row %d: ordered entry holds a different chain than the map", e.id)
			}
			continue
		}
		if len(e.c.versions) != 0 {
			t.Fatalf("row %d: entry missing from the map still holds %d versions", e.id, len(e.c.versions))
		}
		dead++
	}
	if dead != h.dead {
		t.Fatalf("%d dropped entries, dead counter %d", dead, h.dead)
	}
	if len(h.order)-dead != len(h.rows) {
		t.Fatalf("ordered walk reaches %d chains, map holds %d", len(h.order)-dead, len(h.rows))
	}
	if dead*2 > len(h.order) {
		t.Fatalf("%d of %d entries dropped: compaction did not run", dead, len(h.order))
	}
}

// bruteScan walks every chain through the map of every shard and returns
// the IDs and images visible at ts, sorted by ID.
func bruteScan(t *testing.T, s *Store, table string, at int64) ([]RowID, []Row) {
	t.Helper()
	ts, err := s.table(table)
	if err != nil {
		t.Fatal(err)
	}
	type hit struct {
		id  RowID
		row Row
	}
	var hits []hit
	for _, sh := range ts.shards {
		for id, c := range sh.heap.rows {
			if r, ok := c.at(at); ok {
				hits = append(hits, hit{id, r})
			}
		}
	}
	slices.SortFunc(hits, func(a, b hit) int { return int(a.id - b.id) })
	ids := make([]RowID, len(hits))
	rows := make([]Row, len(hits))
	for i, h := range hits {
		ids[i], rows[i] = h.id, h.row
	}
	return ids, rows
}

// checkScans compares every scan entry point at ts with bruteScan.
func checkScans(t *testing.T, s *Store, table string, at int64) {
	t.Helper()
	wantIDs, wantRows := bruteScan(t, s, table, at)
	ids, rows, err := s.ScanRowsAt(table, at)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, wantIDs) || fmt.Sprint(rows) != fmt.Sprint(wantRows) {
		t.Fatalf("%s at %d: ScanRowsAt %v, brute force %v", table, at, ids, wantIDs)
	}
	onlyIDs, err := s.ScanAt(table, at)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(onlyIDs, wantIDs) {
		t.Fatalf("%s at %d: ScanAt %v, brute force %v", table, at, onlyIDs, wantIDs)
	}
	for i, id := range wantIDs {
		if r, ok := s.GetAt(table, id, at); !ok || fmt.Sprint(r) != fmt.Sprint(wantRows[i]) {
			t.Fatalf("%s at %d: GetAt(%d) = %v, %v; scan saw %v", table, at, id, r, ok, wantRows[i])
		}
	}
}

func TestOrderedHeapScanProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := gcPropertyStore(t, dir)
			defer func() { s.Close() }()
			var snaps []*Snapshot
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
			pick := func(table string) (RowID, Row, bool) {
				ids, rows, err := s.ScanRows(table)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) == 0 {
					return 0, nil, false
				}
				i := rng.Intn(len(ids))
				return ids[i], rows[i], true
			}
			for step := 0; step < 150; step++ {
				table := []string{"t", "u"}[rng.Intn(2)]
				switch op := rng.Intn(20); {
				case op < 5:
					s.Insert(table, kvRow(key(), rng.Int63n(5)))
				case op < 7:
					// Concurrent commits: IDs of the ID-routed table are
					// drawn before the shard lock, so they can reach a
					// shard out of order.
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							tx := s.Begin()
							defer tx.Commit()
							for i := 0; i < 5; i++ {
								if _, err := tx.Insert("u", kvRow(fmt.Sprintf("w%d", w), int64(i))); err != nil {
									t.Error(err)
								}
							}
						}(w)
					}
					wg.Wait()
				case op < 11:
					if id, row, ok := pick(table); ok {
						next := Row{row[0], sqltypes.NewInt(rng.Int63n(5))}
						if rng.Intn(2) == 0 {
							next[0] = sqltypes.NewString(key()) // PK change: may move shards
						}
						s.Update(table, id, next)
					}
				case op < 14:
					if id, _, ok := pick(table); ok {
						if err := s.Delete(table, id); err != nil {
							t.Fatal(err)
						}
					}
				case op < 16:
					snaps = append(snaps, s.AcquireSnapshot())
				case op < 17:
					if len(snaps) > 0 {
						i := rng.Intn(len(snaps))
						snaps[i].Release()
						snaps = append(snaps[:i], snaps[i+1:]...)
					}
				case op < 19:
					s.GC()
				default:
					snaps = nil
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = gcPropertyStore(t, dir)
				}
				s.eachShard(func(sh *tableShard) { checkHeapOrder(t, sh.heap) })
				for _, tbl := range []string{"t", "u"} {
					checkScans(t, s, tbl, s.VisibleTS())
					for _, sn := range snaps {
						checkScans(t, s, tbl, sn.TS())
					}
				}
			}
		})
	}
}

// TestHeapOutOfOrderArrivals drives one heap directly: IDs arrive in a
// random order, some chains are dropped and some dropped IDs return (a
// row that left the shard, was collected, and moved back); the walk must
// equal the sorted live set throughout.
func TestHeapOutOfOrderArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newHeap()
	live := map[RowID]bool{}
	var dropped []RowID
	arrivals := rng.Perm(400)
	for len(arrivals) > 0 {
		switch op := rng.Intn(8); {
		case op == 0 && len(live) > 0:
			// Drop a live chain, as GC does once its last version is
			// reclaimed.
			for victim := range live {
				h.supersede(victim, 1)
				h.dropChain(victim)
				delete(live, victim)
				dropped = append(dropped, victim)
				break
			}
		case op == 1 && len(dropped) > 0:
			// A dropped ID comes back: the row moved away and back.
			id := dropped[0]
			dropped = dropped[1:]
			h.insertVersion(id, Row{sqltypes.NewInt(int64(id))}, 2)
			live[id] = true
		case op == 2:
			id := RowID(arrivals[0] + 1)
			arrivals = arrivals[1:]
			h.replaceAt(id, Row{sqltypes.NewInt(int64(id))}, 2) // recovery replay
			live[id] = true
		default:
			id := RowID(arrivals[0] + 1)
			arrivals = arrivals[1:]
			h.insertVersion(id, Row{sqltypes.NewInt(int64(id))}, 2)
			live[id] = true
		}
		checkHeapOrder(t, h)
		want := make([]RowID, 0, len(live))
		for id := range live {
			want = append(want, id)
		}
		slices.Sort(want)
		if got := h.scanIDs(); !slices.Equal(got, want) {
			t.Fatalf("scanIDs %v, want %v", got, want)
		}
		ids, rows := h.scanAt(2, true)
		if !slices.Equal(ids, want) || len(rows) != len(ids) {
			t.Fatalf("scanAt %v, want %v", ids, want)
		}
		for j, r := range rows {
			if r[0].Int() != int64(ids[j]) {
				t.Fatalf("scanAt paired row %v with ID %d", r, ids[j])
			}
		}
	}
}
