package main

import (
	"fmt"
	"testing"
)

// streams returns the first n statements of every generated stream.
func streams(seed int64, n int) []string {
	var out []string
	for c := 0; c < oltpClients; c++ {
		s := oltpStream(seed, c)
		for i := 0; i < n; i++ {
			out = append(out, s.next().sql)
		}
	}
	scan := newScanStream(seed, newScanData(seed))
	crowd := newCrowdStream(seed, newCrowdData(seed))
	for i := 0; i < n; i++ {
		out = append(out, scan.next().sql, crowd.next().sql)
	}
	return out
}

func TestSameSeedSameStatementStream(t *testing.T) {
	a, b, c := streams(7, 500), streams(7, 500), streams(8, 500)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("seed 7 produced two different statement streams")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("seeds 7 and 8 produced the same statement stream")
	}
}

// TestCrowdCostRepeats runs the crowd workload's fixed prefix twice at
// one seed, once with the timing decorators on: cents, crowd time and
// accuracy must repeat exactly.
func TestCrowdCostRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the crowd workload twice")
	}
	cfg := runCfg{workload: "crowd_durable", seed: 3, seconds: 1, work: t.TempDir()}
	data := newCrowdData(cfg.seed)
	var costs []crowdCost
	for i, taps := range []*crowdTaps{nil, newCrowdTaps(newTracer())} {
		sys, err := openCrowd(cfg, data, i, taps)
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		_, cost := crowdPass(cfg, sys, data, 300, nil, rep)
		sys.close()
		if rep.failed.Load() != 0 {
			t.Fatalf("pass %d: %d failed operations: %v", i, rep.failed.Load(), rep.problems)
		}
		costs = append(costs, cost)
	}
	if costs[0] != costs[1] {
		t.Fatalf("crowd outcome differs between runs: %+v vs %+v", costs[0], costs[1])
	}
	if costs[0].cents <= 0 || costs[0].vsec <= 0 || costs[0].accuracy <= 0 {
		t.Fatalf("crowd outcome not measured: %+v", costs[0])
	}
}

// TestChecksCatchWrongAnswers feeds each output check a wrong answer.
func TestChecksCatchWrongAnswers(t *testing.T) {
	m := newKeyedModel(0, 10)
	read := keyedStmt{kind: opRead, key: 3}
	if msg := m.check(read, opResult{rows: [][]string{{"3", fmt.Sprint(initialX(3) + 1), padOf(3)}}}, true); msg == "" {
		t.Error("keyed read with a stale value passed")
	}
	if msg := m.check(keyedStmt{kind: opUpdate, key: 3}, opResult{affected: 0}, true); msg == "" {
		t.Error("update that affected no row passed")
	}
	data := newScanData(1)
	if _, _, p := data.checkFilter(0, 1000)(opResult{rows: [][]string{{"1", "5"}}}); p == "" {
		t.Error("scan+filter with a wrong row count passed")
	}
	if _, _, p := data.checkJoin(0)(opResult{}); p == "" {
		t.Error("join with no groups passed")
	}
	cd := newCrowdData(1)
	if _, _, p := cd.checkOrder(0, 10)(opResult{rows: [][]string{{cd.conf.Talks[0].Title}}}); p == "" {
		t.Error("CROWDORDER missing rows passed")
	}
}
