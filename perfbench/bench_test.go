package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/server"
)

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, req: 7, name: lServer},                  // 0
		{start: 10, end: 60, req: 7, name: lKV, parent: lServer},     // 1: child of 0
		{start: 20, end: 30, req: 7, name: lCache, parent: lKV},      // 2: child of 1
		{start: 25, end: 40, req: 7, name: lCache, parent: lKV},      // 3: overlaps 2
		{start: 70, end: 80, req: 8, name: lKV, parent: lServer},     // 4: other request, no parent
		{start: 65, end: 120, req: 7, name: lKV, parent: lServer},    // 5: not contained, no parent
		{start: 200, end: 300, req: 9, name: lServer},                // 6
		{start: 250, end: 400, req: 9, name: lServer},                // 7: same key, overlapping
		{start: 260, end: 290, req: 9, name: lKV, parent: lServer},   // 8: innermost parent is 7
		{start: 210, end: 220, req: 9, name: lKV, parent: lServer},   // 9: only 6 contains it
		{start: 255, end: 500, req: 9, name: lCache, parent: lKV},    // 10: outlives every kv span
		{start: 262, end: 270, req: 9, name: lCache, parent: lKV},    // 11: child of 8
		{start: 265, end: 280, req: 9, name: lCache, parent: lKV},    // 12: child of 8, overlaps 11
		{start: 300, end: 300, req: 9, name: lCache, parent: lKV},    // 13: empty, no kv contains it
		{start: 212, end: 212, req: 9, name: lCache, parent: lCache}, // 14: wrong parent layer
	}
	byLayer, parents := analyze(spans)
	want := []int32{-1, 0, 1, 1, -1, -1, -1, -1, 7, 6, -1, 8, 8, -1, -1}
	for i, p := range parents {
		if p != want[i] {
			t.Errorf("span %d: parent %d, want %d", i, p, want[i])
		}
	}
	// kv self: span 1 is 50 long with [20,40] covered; span 8 is 30 with
	// [262,280] covered; spans 4, 5 and 9 have no children.
	if got, want := byLayer[lKV].self, int64((50-20)+10+55+(30-18)+10); got != want {
		t.Errorf("kv self = %d, want %d", got, want)
	}
	// server self: span 0 loses [10,60]; span 6 loses [210,220]; span 7
	// loses [260,290].
	if got, want := byLayer[lServer].self, int64((100-50)+(100-10)+(150-30)); got != want {
		t.Errorf("server self = %d, want %d", got, want)
	}
	if got, want := byLayer[lCache].opNs(opGet), float64(10+15+245+8+15)/7; got != want {
		t.Errorf("cache mean = %v, want %v", got, want)
	}
}

func TestCoveredClipsAndMergesChildren(t *testing.T) {
	spans := []span{{start: 10, end: 50}, {start: 0, end: 20}, {start: 15, end: 30}, {start: 40, end: 90}}
	if got := covered(spans[0], spans, []int32{1, 2, 3}); got != 30 {
		t.Errorf("covered = %d, want 30 ([10,30] and [40,50])", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true},   // rank 990: 10 beyond
		{999, 0.99, false},   // rank 990: 9 beyond
		{2000, 0.99, true},   // ranks 1980 and 1981 averaged: 19 beyond
		{2000, 0.999, false}, // ranks 1998 and 1999 averaged: 1 beyond
		{20, 0.5, true},      // rank 10: 10 beyond
		{19, 0.5, false},     // rank 10: 9 beyond
		{0, 0.5, false},
	} {
		if _, ok := percentile(sorted(c.n), c.p); ok != c.ok {
			t.Errorf("n=%d p=%v: ok=%v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if v, _ := percentile(sorted(1000), 0.5); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	// 4000 samples: the value averages ranks 1998..2002 (0.05% each side).
	if v, _ := percentile(sorted(4000), 0.5); v != 2000 {
		t.Errorf("p50 of 1..4000 = %v, want 2000", v)
	}
}

func TestLatenciesClampAndCount(t *testing.T) {
	l := newLatencies(2)
	l.add(-5)
	l.add(1 << 40)
	l.add(3)
	if l.ns[0] != 0 || l.ns[1] != ^uint32(0) || l.dropped != 1 {
		t.Errorf("latencies = %v dropped %d", l.ns, l.dropped)
	}
}

func TestErrorRatioCountsRefusedFailedAndWrong(t *testing.T) {
	var tl tally
	tl.attempted = 200
	tl.fail(server.ErrServerBusy)                          // refused: the server answered busy
	tl.fail(fmt.Errorf("server: set: %q", "SERVER_ERROR")) // refused: any other answer
	tl.fail(io.ErrUnexpectedEOF)                           // failed: the connection broke
	tl.fail(fmt.Errorf("read: %w", io.EOF))                // failed
	tl.wrong += 2                                          // hits whose value was not the key's
	var sum tally
	sum.add(tl)
	sum.add(tally{attempted: 50, wrong: 1}) // a failed output check
	if sum.refused != 2 || sum.failed != 2 || sum.wrong != 3 || sum.attempted != 250 {
		t.Fatalf("tally = %+v", sum)
	}
	if got := sum.errorRatio(); got != 7.0/250 {
		t.Errorf("error ratio = %v, want %v", got, 7.0/250)
	}
	if got := (tally{}).errorRatio(); got != 1 {
		t.Errorf("error ratio of nothing attempted = %v, want 1", got)
	}
}

func TestHeapPerUserByte(t *testing.T) {
	// 100 items of 64-byte values under 16-byte keys: 8000 user bytes.
	user := userBytes(6400, 100, 16)
	if user != 8000 {
		t.Fatalf("user bytes = %d, want 8000", user)
	}
	if got := heapPerUserByte(1000, 25000, user); got != 3 {
		t.Errorf("heap per user byte = %v, want 3", got)
	}
	if got := heapPerUserByte(5000, 4000, user); got != 0 {
		t.Errorf("a heap that shrank reads %v, want 0", got)
	}
	if got := heapPerUserByte(0, 100, 0); got != 0 {
		t.Errorf("an empty cache reads %v, want 0", got)
	}
}

// bareStore is a server.Store without ShardTopology, like the router.
type bareStore struct{ server.Store }

func TestTracedStoreForwardsTopologyOnlyWhenPresent(t *testing.T) {
	inner, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(1024), concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	kv := concurrent.NewKV(inner, 8)
	tr := newTracer(16, 4, 1)
	topo, ok := newTracedStore(kv, tr, lKV, lServer).(server.ShardTopology)
	if !ok {
		t.Fatal("decorated KV lost ShardTopology")
	}
	if topo.NumDataShards() != kv.NumDataShards() || topo.DataShardIndex(12345) != kv.DataShardIndex(12345) {
		t.Error("decorated topology disagrees with the KV's")
	}
	if _, ok := newTracedStore(bareStore{kv}, tr, lRouter, lServer).(server.ShardTopology); ok {
		t.Error("decorator invented a topology the inner store lacks")
	}
}

func TestTracedCacheCountsAndTimesInWindows(t *testing.T) {
	inner, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(1024), concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(4*nStripes, 4, 1)
	c := &tracedCache{Cache: inner, t: tr}
	for seq := int64(0); seq < 8; seq++ {
		tr.tick(seq) // windows open at 0 and 4 for one op each
		if _, ok := c.Get(uint64(seq)); !ok {
			c.Set(uint64(seq), 1)
		}
	}
	if tr.total(cCacheGet) != 8 || tr.total(cCacheSet) != 8 {
		t.Errorf("counted %d gets, %d sets; want 8 each", tr.total(cCacheGet), tr.total(cCacheSet))
	}
	if n := len(tr.recorded()); n != 4 {
		t.Errorf("recorded %d spans, want 4 (a get and a set in each window)", n)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Loads    []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Loads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(bj.Loads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(bj.Loads), len(workloads))
	}
}
