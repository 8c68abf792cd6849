package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	_ "repro/internal/policy/arc"
	_ "repro/internal/policy/clock"
	_ "repro/internal/policy/lru"
	_ "repro/internal/policy/qdlp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simFamilies are the generated trace families sim-replay sweeps: block
// traffic with scans, and skewed web traffic.
var simFamilies = []string{"twitter", "msr"}

// simTracesPerFamily traces of each family are generated, each at
// 1/simTracesPerFamily of the family's canonical scale. Each seed jitters a family's
// parameters, so the hit ratio is a mean over several traces, as in the
// paper's figures, rather than one trace's draw.
const simTracesPerFamily = 16

// simLatencyWindows is the fewest times every cell is replayed with
// per-request timing, once after each sweep; each replay is one latency
// window, so the windows differ only in when they ran.
const simLatencyWindows = 8

// simLatencyEvery times one request in this many in a latency replay.
const simLatencyEvery = 32

// runSim replays the generated families through sim.RunSweep with nproc
// workers, for the four policies at the paper's large size (10% of each
// trace's footprint). An op is one simulated request; a get is a request
// that hit and a set one that missed (and so inserted and evicted), each
// timed as one policy decision.
func runSim(b *bench, traced bool, seconds float64, reps int) (*phase, error) {
	p := &phase{}
	var jobs []sim.Job
	for rep := 0; rep < reps; rep++ {
		jobs = nil
		t0 := time.Now()
		traces := make([]*trace.Trace, 0, len(simFamilies))
		for i := 0; i < simTracesPerFamily; i++ {
			for _, name := range simFamilies {
				fam, ok := workload.FamilyByName(name)
				if !ok {
					return nil, fmt.Errorf("unknown family %q", name)
				}
				traces = append(traces, fam.GenerateDefault(b.seed*simTracesPerFamily+int64(i), simTracesPerFamily))
			}
		}
		gen := time.Since(t0)
		for _, tr := range traces {
			sim.Prepare(tr, false)
			size := workload.CacheSize(tr.UniqueObjects(), workload.LargeCacheFrac)
			for _, pol := range simPolicies {
				jobs = append(jobs, sim.Job{Trace: tr, Policy: pol, Capacity: size})
			}
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.genS = append(p.genS, gen.Seconds())
	}
	var requests int64
	for _, j := range jobs {
		requests += int64(len(j.Trace.Requests))
	}
	if traced {
		return simTraced(b, p, jobs, seconds)
	}

	runtime.GC() // start measuring with the set-ups' garbage collected
	// Sweeps, the figure-regeneration path, alternate with timed replays of
	// every cell until the deadline, so the latency windows spread over the
	// whole run like the other workloads' windows, and a slow spell of the
	// host moves a few windows rather than the run's median.
	var first []sim.Result
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var sweepTime time.Duration
	for k := 0; k < simLatencyWindows || time.Now().Before(deadline); k++ {
		t0 := time.Now()
		res, err := sim.RunSweep(jobs, b.nproc)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		sweepTime += el
		p.rates = append(p.rates, float64(requests)/el.Seconds())
		p.tally.attempted += requests
		p.ops += requests
		if first == nil {
			first = res
		}
		for i, r := range res {
			b.check(r.Hits == first[i].Hits, "sweep cell %s/%s hits %d, first sweep had %d",
				r.Trace, r.Policy, r.Hits, first[i].Hits)
			p.hits += r.Hits
			p.gets += r.Requests
		}
		// Each window starts from a collected heap, so a collection the
		// sweep left due does not land in the timed decisions.
		runtime.GC()
		get, set, hits := timedReplays(jobs)
		p.get, p.set = append(p.get, get), append(p.set, set)
		for i, h := range hits {
			b.check(h == first[i].Hits, "latency replay of %s/%s hit %d, sweeps hit %d",
				first[i].Trace, first[i].Policy, h, first[i].Hits)
		}
	}
	p.elapsed = sweepTime
	return p, nil
}

// timedReplays replays cells once more, straight through core.Policy, on
// one goroutine, and returns the sorted get (hit) and set (miss) decision
// times and each cell's hit count. One goroutine, with the other cores
// idle, times a decision as the single-threaded simulator makes it.
func timedReplays(cells []sim.Job) (get, set []uint32, hits []int64) {
	var total int64
	for _, j := range cells {
		total += int64(len(j.Trace.Requests))
	}
	gets := newLatencies(int(total/simLatencyEvery) + 1024)
	sets := newLatencies(int(total/simLatencyEvery) + 1024)
	hits = make([]int64, len(cells))
	for i, c := range cells {
		hits[i] = timedReplay(c, gets, sets)
	}
	return merge(gets), merge(sets), hits
}

// timedReplay runs one cell through a fresh policy, timing every
// simLatencyEvery-th decision, and returns the hit count.
func timedReplay(j sim.Job, gets, sets *latencies) int64 {
	pol, err := core.New(j.Policy, j.Capacity)
	if err != nil {
		panic(err) // the sweep built the same policy already
	}
	var hits int64
	reqs := j.Trace.Requests
	for i := range reqs {
		if i%simLatencyEvery != 0 {
			if pol.Access(&reqs[i]) {
				hits++
			}
			continue
		}
		t0 := now()
		hit := pol.Access(&reqs[i])
		d := now() - t0
		if hit {
			hits++
			gets.add(d)
		} else {
			sets.add(d)
		}
	}
	return hits
}

// simTraced times each cell as its own single-job sim.RunSweep call, nproc
// cells at a time, for the per-policy cost and hit ratio.
func simTraced(b *bench, p *phase, jobs []sim.Job, seconds float64) (*phase, error) {
	t := newTracer(1<<16, 1, 1)
	p.tracer = t
	type cell struct{ ns, reqs, hits int64 }
	perPolicy := map[string]*cell{}
	for _, pol := range simPolicies {
		perPolicy[pol] = &cell{}
	}
	var (
		mu    sync.Mutex
		first = make([]int64, len(jobs))
		errs  atomic.Int64
	)
	for i := range first {
		first[i] = -1
	}
	// A unit of work is one trace's cells, run one after another: RunSweep
	// prepares the traces it is given, so two concurrent calls must never
	// share a trace.
	perTrace := len(simPolicies)
	traces := len(jobs) / perTrace
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= traces && time.Now().After(deadline) {
					return
				}
				tr := n % traces
				for i := tr * perTrace; i < (tr+1)*perTrace; i++ {
					t0 := now()
					res, err := sim.RunSweep(jobs[i:i+1], 1)
					t1 := now()
					if err != nil {
						errs.Add(1)
						return
					}
					t.record(lSimCell, lNone, opGet, uint64(i), t0, t1)
					mu.Lock()
					c := perPolicy[jobs[i].Policy]
					c.ns += t1 - t0
					c.reqs += res[0].Requests
					c.hits += res[0].Hits
					if first[i] < 0 {
						first[i] = res[0].Hits
					}
					b.check(res[0].Hits == first[i], "cell %s/%s hits %d, first run had %d",
						res[0].Trace, res[0].Policy, res[0].Hits, first[i])
					p.ops += res[0].Requests
					p.hits += res[0].Hits
					p.gets += res[0].Requests
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.tally.attempted = p.ops
	p.tally.failed = errs.Load()
	p.layers = map[string]float64{}
	for pol, c := range perPolicy {
		p.layers["sim.ns_per_req."+pol] = ratio(float64(c.ns), float64(c.reqs))
		p.layers["sim.hit_ratio."+pol] = ratio(float64(c.hits), float64(c.reqs))
	}
	return p, nil
}
