package main

// Seeded statement streams. Every input the program receives is a pure
// function of --seed, the client number and the position in the stream;
// the program sees only the generated SQL.

import (
	"fmt"
	"math/rand"
	"strings"

	"crowddb/internal/sqltypes"
)

// zipfS is the skew of every Zipf key choice: the hottest of n keys
// draws roughly a tenth of the accesses, so hot rows build MVCC version
// chains and crowd answers get reused.
const zipfS = 1.1

// mixer yields operation kinds in shuffled blocks that hold each kind
// exactly weight times, so every run and every seed executes the same
// mix; only the order inside a block and the keys vary.
type mixer struct {
	rng   *rand.Rand
	block []int
	pos   int
	// lo and hi, when hi > 0, confine every kind but kind 0 to block
	// positions [lo, hi).
	lo, hi int
}

func newMixer(rng *rand.Rand, weights ...int) *mixer {
	m := &mixer{rng: rng}
	for kind, w := range weights {
		for i := 0; i < w; i++ {
			m.block = append(m.block, kind)
		}
	}
	return m
}

// blockStart reports whether the next kind starts a new block. Measured
// loops stop only there, so every pass runs whole blocks and executes
// its mix exactly.
func (m *mixer) blockStart() bool { return m.pos == 0 }

func (m *mixer) next() int {
	if m.pos == 0 {
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		if m.hi > 0 {
			var others []int
			for i, k := range m.block {
				if k != 0 {
					others = append(others, k)
					m.block[i] = 0
				}
			}
			slots := m.rng.Perm(m.hi - m.lo)
			for i, k := range others {
				m.block[m.lo+slots[i]] = k
			}
		}
	}
	k := m.block[m.pos]
	m.pos = (m.pos + 1) % len(m.block)
	return k
}

// hotKeys draws Zipf-skewed ranks and maps them through a fixed
// permutation, so the hot keys are scattered over the key space (and
// over storage shards) rather than clustered at its start. The
// permutation depends on n only: every seed sees the same hot set, and
// the seed drives the draws.
type hotKeys struct {
	zipf *rand.Zipf
	perm []int
}

func newHotKeys(rng *rand.Rand, n int) *hotKeys {
	return &hotKeys{zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rand.New(rand.NewSource(int64(n))).Perm(n)}
}

func (h *hotKeys) next() int { return h.perm[h.zipf.Uint64()] }

func streamRNG(seed int64, stream string, client int) *rand.Rand {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*7919 + int64(client)))
}

func lit(s string) string { return sqltypes.NewString(s).SQLLiteral() }

// Operation kinds of the keyed (OLTP-style) streams.
const (
	opRead = iota
	opInsert
	opUpdate
)

var opNames = []string{"read", "insert", "update"}

// keyedStmt is one generated point operation on a keyed table.
type keyedStmt struct {
	kind int
	key  int64
	sql  string
}

// keyedStream generates point reads, inserts of new keys and increments
// for one client that owns the keys [base, base+n) plus every key it
// inserts, so the client can check each read against its own model.
type keyedStream struct {
	table   string
	mix     *mixer
	hot     *hotKeys
	base    int64
	nextNew int64
}

func newKeyedStream(rng *rand.Rand, table string, base, n, newBase int64, weights ...int) *keyedStream {
	return &keyedStream{table: table, mix: newMixer(rng, weights...), hot: newHotKeys(rng, int(n)), base: base, nextNew: newBase}
}

func (s *keyedStream) next() keyedStmt {
	switch kind := s.mix.next(); kind {
	case opInsert:
		k := s.nextNew
		s.nextNew++
		return keyedStmt{kind, k, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %s)", s.table, k, initialX(k), lit(padOf(k)))}
	case opUpdate:
		k := s.base + int64(s.hot.next())
		return keyedStmt{kind, k, fmt.Sprintf("UPDATE %s SET x = x + 1 WHERE k = %d", s.table, k)}
	default:
		k := s.base + int64(s.hot.next())
		return keyedStmt{opRead, k, fmt.Sprintf("SELECT k, x, pad FROM %s WHERE k = %d", s.table, k)}
	}
}

// Keyed tables hold (k INTEGER PRIMARY KEY, x INTEGER, pad STRING).
func initialX(k int64) int64 { return k % 997 }

func padOf(k int64) string { return fmt.Sprintf("row-%09d-%s", k, strings.Repeat("p", 40)) }

// keyedDDL creates a keyed table.
func keyedDDL(table string) string {
	return fmt.Sprintf("CREATE TABLE %s (k INTEGER PRIMARY KEY, x INTEGER, pad STRING)", table)
}

// keyedLoad returns multi-row INSERTs loading keys [0, n) in batches.
func keyedLoad(table string, n, batch int) []string {
	var out []string
	var sb strings.Builder
	for k := 0; k < n; k++ {
		if k%batch == 0 {
			if sb.Len() > 0 {
				out = append(out, sb.String())
			}
			sb.Reset()
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %s)", k, initialX(int64(k)), lit(padOf(int64(k))))
	}
	if sb.Len() > 0 {
		out = append(out, sb.String())
	}
	return out
}

// keyedModel is a client's model of the last committed value of every
// key it owns.
type keyedModel map[int64]int64

func newKeyedModel(base, n int64) keyedModel {
	m := keyedModel{}
	for k := base; k < base+n; k++ {
		m[k] = initialX(k)
	}
	return m
}

// check verifies one finished statement against the model and, for a
// write, applies it. It returns a description of any mismatch.
func (m keyedModel) check(st keyedStmt, res opResult, affectedKnown bool) string {
	switch st.kind {
	case opRead:
		want, ok := m[st.key]
		if !ok {
			return fmt.Sprintf("read of unknown key %d", st.key)
		}
		if len(res.rows) != 1 || len(res.rows[0]) != 3 {
			return fmt.Sprintf("read k=%d: %d rows", st.key, len(res.rows))
		}
		r := res.rows[0]
		if r[0] != fmt.Sprint(st.key) || r[1] != fmt.Sprint(want) || r[2] != padOf(st.key) {
			return fmt.Sprintf("read k=%d: got %v, want x=%d", st.key, r, want)
		}
	case opInsert:
		if affectedKnown && res.affected != 1 {
			return fmt.Sprintf("insert k=%d affected %d", st.key, res.affected)
		}
		m[st.key] = initialX(st.key)
	case opUpdate:
		if affectedKnown && res.affected != 1 {
			return fmt.Sprintf("update k=%d affected %d", st.key, res.affected)
		}
		m[st.key]++
	}
	return ""
}
