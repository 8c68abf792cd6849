package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
)

// statsHeader is the fixed STAT prologue describing the server itself; every
// other STAT line must come from counterTable.
var statsHeader = map[string]bool{
	"cache": true, "version": true, "uptime_seconds": true, "listeners": true,
	"gomaxprocs": true, "data_shards": true, "batch_io": true,
}

// TestStatsMatchMetrics is the drift guard for the counter table: after
// real traffic, every row reads the same on stats and on /metrics, and
// neither surface carries a server scalar that bypasses the table.
func TestStatsMatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	inner, err := concurrent.New("qdlp", 0, concurrent.WithMaxBytes(1<<20), concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = concurrent.NewKV(inner, 8)
		cfg.Metrics = reg
		cfg.MaxInflight = 4
	})
	admin := httptest.NewServer(srv.AdminMux(reg))
	defer admin.Close()

	rc := dialRaw(t, addr)
	rc.send("set a 0 0 2\r\nva\r\nset b 0 0 2\r\nvb\r\n")
	rc.expect("STORED")
	rc.expect("STORED")
	rc.send("get a\r\nget nope\r\nget a b nope\r\n")
	for _, want := range []string{"VALUE a 0 2", "va", "END", "END",
		"VALUE a 0 2", "va", "VALUE b 0 2", "vb", "END"} {
		rc.expect(want)
	}
	rc.send("delete a\r\ndelete nope\r\ntouch b 100\r\ntouch nope 100\r\n")
	for _, want := range []string{"DELETED", "NOT_FOUND", "TOUCHED", "NOT_FOUND"} {
		rc.expect(want)
	}
	// Once the connection's handler has exited, nothing moves the counters
	// between the two reads below.
	rc.c.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.counters.CurrConns.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection handler did not exit")
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	srv.writeStats(bw)
	bw.Flush()
	stats := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "END\r\n"), "\r\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("malformed stats line %q", line)
		}
		if statsHeader[f[1]] {
			continue
		}
		if _, dup := stats[f[1]]; dup {
			t.Errorf("STAT %s printed twice", f[1])
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("STAT %s: %v", f[1], err)
		}
		stats[f[1]] = v
	}

	resp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := parseScalarSamples(t, string(body))

	policy := srv.cfg.Store.Name()
	fromTable := map[string]bool{}
	for i := range counterTable {
		r := &counterTable[i]
		series := r.metric + renderTestLabels(r.metricLabels(policy))
		fromTable[r.stat] = true
		fromTable[series] = true
		sv, ok := stats[r.stat]
		if !ok {
			t.Errorf("row %s missing from stats", r.stat)
			continue
		}
		mv, ok := samples[series]
		if !ok {
			t.Errorf("row %s missing from /metrics as %s", r.stat, series)
			continue
		}
		if float64(sv) != mv {
			t.Errorf("row %s: stats %d, /metrics %s %v", r.stat, sv, series, mv)
		}
	}
	for name := range stats {
		if !fromTable[name] {
			t.Errorf("STAT %s is printed outside counterTable", name)
		}
	}
	for series := range samples {
		if !fromTable[series] {
			t.Errorf("scalar series %s is registered outside counterTable", series)
		}
	}

	// The traffic above reached every kind of row, so matching values are
	// not both zero by accident.
	for name, want := range map[string]int64{
		"cmd_get": 5, "get_hits": 3, "get_misses": 2, "cmd_set": 2,
		"cmd_delete": 2, "delete_hits": 1, "cmd_touch": 2, "touch_hits": 1,
		"store_hits": 3, "store_misses": 2, "store_sets": 2, "store_deletes": 1,
		"curr_items": 1, "max_bytes": 1 << 20, "total_connections": 1,
		"limiter_limit": 4, "limiter_inflight": 0,
	} {
		if got := stats[name]; got != want {
			t.Errorf("STAT %s = %d, want %d", name, got, want)
		}
	}
}

// parseScalarSamples returns the /metrics samples of counter and gauge
// series that carry no labels beyond the server's fixed side and policy,
// keyed by name plus rendered labels. Histograms and the families split by
// other labels (cmd, shard, reason, window, ...) are skipped.
func parseScalarSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	inHistogram := false // a family's samples follow its TYPE line
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			inHistogram = f[3] == "histogram"
		}
		if line == "" || line[0] == '#' || inHistogram {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series, val := line[:sp], line[sp+1:]
		_, labels, _ := strings.Cut(series, "{")
		scalar := true
		for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, _ := strings.Cut(pair, "="); k != "" && k != "side" && k != "policy" {
				scalar = false
			}
		}
		if !scalar {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// renderTestLabels renders label pairs the way the registry exposes them:
// sorted by name, values quoted.
func renderTestLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var kv []string
	for i := 0; i < len(pairs); i += 2 {
		kv = append(kv, pairs[i]+`="`+pairs[i+1]+`"`)
	}
	sort.Strings(kv)
	return "{" + strings.Join(kv, ",") + "}"
}
