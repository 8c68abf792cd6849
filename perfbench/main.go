// Command perfbench is the repository's layered benchmark. One run executes
// one named workload in this process — inputs generated from --seed,
// caches, servers and the router built in-process, load from at most nproc
// goroutines or connections — checks the outputs, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones and nothing is
// decorated. With --trace 1 the same workload runs twice, untraced and
// then with span-recording decorators around each layer, and the metrics
// are the per-layer ones plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one reported metric. The two tables below are the contract
// with BENCHMARK.json; a test keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"hit_ratio", "fraction"},
	{"get_p50_us", "us"},
	{"get_p90_us", "us"},
	{"set_p50_us", "us"},
	{"set_p90_us", "us"},
}

// simPolicies are the simulator policies sim-replay sweeps; ladderPolicies
// are the served policies the traced kv-hot run compares.
var (
	simPolicies    = []string{"lru", "clock-2bit", "qd-lp-fifo", "arc"}
	ladderPolicies = []string{"lru", "clock", "sieve", "qdlp"}
)

var perLayer = func() []metricDef {
	defs := []metricDef{{"workload.gen_s", "s"}}
	for _, p := range simPolicies {
		defs = append(defs, metricDef{"sim.ns_per_req." + p, "ns"}, metricDef{"sim.hit_ratio." + p, "fraction"})
	}
	defs = append(defs,
		metricDef{"cache.get.calls", "count"},
		metricDef{"cache.get.ns", "ns"},
		metricDef{"cache.set.calls", "count"},
		metricDef{"cache.set.ns", "ns"},
		metricDef{"cache.delete.calls", "count"},
		metricDef{"cache.evictions", "count"},
		metricDef{"cache.fill_ratio", "fraction"},
	)
	for _, p := range ladderPolicies {
		defs = append(defs, metricDef{"cache.get.ns." + p, "ns"}, metricDef{"cache.scaling." + p, "x"})
	}
	return append(defs,
		metricDef{"kv.get.ns", "ns"},
		metricDef{"kv.set.ns", "ns"},
		metricDef{"kv.self_ns_per_op", "ns"},
		metricDef{"kv.allocs_per_op", "allocs/op"},
		metricDef{"kv.fill_ratio", "fraction"},
		metricDef{"kv.heap_per_user_byte", "B/B"},
		metricDef{"server.store_ns_per_cmd", "ns"},
		metricDef{"server.self_us_per_cmd", "us"},
		metricDef{"server.cmds_per_flush", "count"},
		metricDef{"server.cross_core_share", "fraction"},
		metricDef{"router.store_us_per_cmd", "us"},
		metricDef{"router.backend_store_ns", "ns"},
		metricDef{"router.replica_read_share", "fraction"},
		metricDef{"router.hot_keys", "count"},
		metricDef{"loadgen.send_lag_p99_us", "us"},
		metricDef{"calib.scaling", "x"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}()

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// phase is what one workload run measured.
type phase struct {
	setupS, genS []float64 // per set-up repetition
	ops          int64     // operations completed in the measured phase
	elapsed      time.Duration
	rates        []float64 // ops/s per window (per sweep for sim-replay)
	hits, gets   int64
	get, set     [][]uint32 // sorted latency samples in ns, per window
	tally        tally
	tracer       *tracer            // traced runs only
	layers       map[string]float64 // workload-specific per-layer metrics
	info         []string           // extra report lines (heap, send lag, ...)
}

func (p *phase) opsPerSec() float64 { return ratio(float64(p.ops), p.elapsed.Seconds()) }

// collect pools the load goroutines' recorders into p's per-window rates
// and latencies.
func (p *phase) collect(recs []*recorder) {
	p.rates, p.get, p.set = nil, nil, nil
	for w := 0; w < nWindows; w++ {
		var ops int64
		gets := make([]*latencies, len(recs))
		sets := make([]*latencies, len(recs))
		for i, r := range recs {
			ops += r.ops[w]
			gets[i], sets[i] = r.get[w], r.set[w]
		}
		p.rates = append(p.rates, float64(ops)/(float64(recs[0].w.width)/1e9))
		p.get = append(p.get, merge(gets...))
		p.set = append(p.set, merge(sets...))
	}
}

// runner sets up and measures one workload for the given seconds. traced
// selects the decorated stack; reps is the number of set-ups.
type runner func(b *bench, traced bool, seconds float64, reps int) (*phase, error)

var workloads = map[string]runner{
	"sim-replay":   runSim,
	"kv-hot":       runKVHot,
	"served-churn": runServed,
	"routed-read":  runRouted,
}

// bench is the per-process context shared by the workloads.
type bench struct {
	seed   int64
	nproc  int
	stdout io.Writer
	checks tally // one attempt per output check; failures count as wrong
}

// check records one output check; a failure is printed and counted.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.checks.attempted++
	if !ok {
		b.checks.wrong++
		fmt.Fprintf(b.stdout, "check FAIL %s\n", fmt.Sprintf(format, args...))
	}
	return ok
}

func (b *bench) infof(format string, args ...any) {
	fmt.Fprintf(b.stdout, "info "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-replay, kv-hot, served-churn or routed-read")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sim-replay|kv-hot|served-churn|routed-read), --seconds > 0, --trace 0|1\n")
		return 2
	}
	b := &bench{seed: *seed, nproc: runtime.GOMAXPROCS(0), stdout: stdout}
	b.infof("workload=%s seed=%d seconds=%g trace=%d nproc=%d numcpu=%d go=%s",
		*name, *seed, *seconds, *trace, b.nproc, runtime.NumCPU(), runtime.Version())

	var (
		values map[string]float64
		defs   []metricDef
		tl     tally
	)
	if *trace == 0 {
		p, err := wl(b, false, *seconds, setupReps)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		values, defs, tl = endToEndValues(b, p), endToEnd, p.tally
	} else {
		base, err := wl(b, false, *seconds/2, 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		p, err := wl(b, true, *seconds/2, 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		spans := p.tracer.recorded()
		byLayer, parents := analyze(spans)
		values = layerValues(p, byLayer)
		values["trace.spans"] = float64(len(spans))
		values["trace.overhead"] = ratio(p.opsPerSec(), base.opsPerSec())
		b.infof("trace overhead: traced ops_s %.0f / untraced ops_s %.0f", p.opsPerSec(), base.opsPerSec())
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.txt", *name, *seed))
		err = os.MkdirAll(*out, 0o755)
		if err == nil {
			err = dump(path, spans, parents)
		}
		b.check(err == nil, "writing spans: %v", err)
		b.infof("spans: %d kept, %d dropped, written to %s", len(spans), p.tracer.dropped.Load(), path)
		defs, tl = perLayer, base.tally
		tl.add(p.tally)
	}
	scaling := calibrate(b.nproc, 200*time.Millisecond)
	b.infof("calib.scaling %.3f x (compute loop ops/s at %d goroutines over 1)", scaling, b.nproc)
	if *trace == 1 {
		values["calib.scaling"] = scaling
	}

	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (*trace == 0 && (!ok || v <= 0)) {
			b.check(false, "metric %s has no valid value (%v)", d.name, v)
			v = 0
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	tl.add(b.checks)
	b.infof("error_ratio %.6f (%d of %d: %d failed, %d refused, %d wrong; %d of them checks)",
		tl.errorRatio(), tl.errors(), tl.attempted, tl.failed, tl.refused, tl.wrong, b.checks.wrong)
	res := result{Correct: tl.errors() == 0, Attempted: tl.attempted, Failed: tl.errors(), Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndValues derives the end-to-end metrics of an untraced run and
// prints each latency with its sample count.
func endToEndValues(b *bench, p *phase) map[string]float64 {
	v := map[string]float64{
		"setup_s":   median(p.setupS),
		"ops_s":     median(p.rates),
		"hit_ratio": ratio(float64(p.hits), float64(p.gets)),
	}
	b.infof("setup_s per set-up %.4f (median of %d)", p.setupS, len(p.setupS))
	b.infof("measured %d ops in %.3fs, %d gets, %d hits; ops_s per window %.0f", p.ops, p.elapsed.Seconds(), p.gets, p.hits, p.rates)
	for _, kind := range []struct {
		name string
		s    [][]uint32
	}{{"get", p.get}, {"set", p.set}} {
		for _, q := range []struct {
			label string
			p     float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			name := kind.name + "_" + q.label + "_us"
			var per []float64
			n, short := 0, 0
			for _, s := range kind.s {
				ns, ok := percentile(s, q.p)
				if !ok {
					short++
				}
				per = append(per, ns/1e3)
				n += len(s)
			}
			b.check(short == 0, "%s needs %d samples beyond it in every window; %d of %d windows have fewer (run longer)", name, minTail, short, len(kind.s))
			v[name] = median(per)
			b.infof("%s %.3f us (%s, median over windows of %.3f)", name, v[name], fmtCount(n), per)
		}
	}
	for _, line := range p.info {
		b.infof("%s", line)
	}
	return v
}

// layerValues derives the per-layer metrics of a traced run from its spans
// and counters, adding the workload's own. A layer the workload does not
// exercise reports 0.
func layerValues(p *phase, lt [nLayers]layerTimes) map[string]float64 {
	t := p.tracer
	srv := lt[lServer]
	v := map[string]float64{
		"workload.gen_s":          median(p.genS),
		"cache.get.calls":         float64(t.total(cCacheGet)),
		"cache.get.ns":            lt[lCache].opNs(opGet),
		"cache.set.calls":         float64(t.total(cCacheSet)),
		"cache.set.ns":            lt[lCache].opNs(opSet),
		"cache.delete.calls":      float64(t.total(cCacheDelete)),
		"kv.get.ns":               lt[lKV].opNs(opGet),
		"kv.set.ns":               lt[lKV].opNs(opSet),
		"kv.self_ns_per_op":       lt[lKV].selfNs(),
		"server.store_ns_per_cmd": ratio(float64(srv.total-srv.self), float64(srv.n)),
		"server.self_us_per_cmd":  srv.selfNs() / 1e3,
		"router.store_us_per_cmd": lt[lRouter].meanNs() / 1e3,
		"router.backend_store_ns": lt[lBackend].meanNs(),
	}
	for k, x := range p.layers {
		v[k] = x
	}
	return v
}
