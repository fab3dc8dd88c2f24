package storage

// Property test for version GC over the per-shard history sets: under
// random inserts, updates (including cross-shard primary-key moves),
// deletes, snapshot acquire/release and Recover replays, a full walk of
// every chain must agree with what the history sets claim, and every
// explicit GC must reclaim exactly what a full sweep of every row would.

import (
	"fmt"
	"math/rand"
	"testing"

	"crowddb/internal/sqltypes"
)

// walkHistory checks every shard of every table by brute force: a chain
// is in its heap's history set exactly when it holds a superseded or dead
// version, every history entry names an existing chain, and the retained
// counters equal the walked number of non-live versions. Returns that
// number.
func walkHistory(t *testing.T, s *Store) int {
	t.Helper()
	walked := 0
	for name, ts := range s.tableMap() {
		for i, sh := range ts.shards {
			for id, c := range sh.heap.rows {
				old := 0
				for _, v := range c.versions {
					if v.end != tsInfinity {
						old++
					}
				}
				if _, tracked := sh.heap.history[id]; tracked != (old > 0) {
					t.Fatalf("%s shard %d: row %d holds %d superseded versions, in history set: %v", name, i, id, old, tracked)
				}
				walked += old
			}
			for id := range sh.heap.history {
				if _, ok := sh.heap.rows[id]; !ok {
					t.Fatalf("%s shard %d: history names missing row %d", name, i, id)
				}
			}
		}
	}
	if _, retained := s.VersionStats(); retained != walked {
		t.Fatalf("VersionStats retained %d, walk found %d", retained, walked)
	}
	if got := s.retained.Load(); got != int64(walked) {
		t.Fatalf("retained counter %d, walk found %d", got, walked)
	}
	return walked
}

// fullSweepReclaimable counts what a sweep of every row of every shard
// would reclaim at the horizon: each version whose end is at or below it.
func fullSweepReclaimable(s *Store, horizon int64) int {
	n := 0
	for _, ts := range s.tableMap() {
		for _, sh := range ts.shards {
			for _, c := range sh.heap.rows {
				for _, v := range c.versions {
					if v.end <= horizon {
						n++
					}
				}
			}
		}
	}
	return n
}

func gcPropertyStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStoreOptions(dir, Options{Shards: 4, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		s.CreateTable("t", []int{0}),
		s.CreateIndex("t", "t_v", []int{1}, false),
		s.CreateTable("u", nil),
		s.Recover(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestGCHistorySetProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := gcPropertyStore(t, dir)
			defer func() { s.Close() }()
			var snaps []*Snapshot
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(30)) }
			// pick returns a random live row of table, if any.
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
			for step := 0; step < 300; step++ {
				table := []string{"t", "u"}[rng.Intn(2)]
				switch op := rng.Intn(20); {
				case op < 5:
					// Duplicate primary keys are refused; that is fine here.
					s.Insert(table, kvRow(key(), rng.Int63n(5)))
				case op < 10:
					if id, row, ok := pick(table); ok {
						next := Row{row[0], sqltypes.NewInt(rng.Int63n(5))}
						if rng.Intn(3) == 0 {
							next[0] = sqltypes.NewString(key()) // PK change: may move shards
						}
						s.Update(table, id, next)
					}
				case op < 13:
					if id, _, ok := pick(table); ok {
						if err := s.Delete(table, id); err != nil {
							t.Fatal(err)
						}
					}
				case op < 16:
					snaps = append(snaps, s.AcquireSnapshot())
				case op < 18:
					if len(snaps) > 0 {
						i := rng.Intn(len(snaps))
						snaps[i].Release()
						snaps = append(snaps[:i], snaps[i+1:]...)
					}
				case op < 19:
					want := fullSweepReclaimable(s, s.gcHorizon())
					if got := s.GC(); got != want {
						t.Fatalf("step %d: GC reclaimed %d, a full sweep would reclaim %d", step, got, want)
					}
					if left := fullSweepReclaimable(s, s.gcHorizon()); left != 0 {
						t.Fatalf("step %d: %d reclaimable versions left after GC", step, left)
					}
				default:
					// Crash-free restart: snapshots die with the process and
					// replay rebuilds single-version chains.
					_, before, _ := s.ScanRows("t")
					snaps = nil
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = gcPropertyStore(t, dir)
					if _, after, _ := s.ScanRows("t"); len(after) != len(before) {
						t.Fatalf("step %d: recovery kept %d of %d rows", step, len(after), len(before))
					}
					if n := walkHistory(t, s); n != 0 {
						t.Fatalf("step %d: %d retained versions after recovery", step, n)
					}
				}
				walkHistory(t, s)
			}
			for _, sn := range snaps {
				sn.Release()
			}
			s.GC()
			if n := walkHistory(t, s); n != 0 {
				t.Fatalf("%d versions retained with no snapshot live", n)
			}
		})
	}
}
