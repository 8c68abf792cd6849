package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/server"
)

const (
	routedBackends  = 2
	routedCapacity  = 1 << 15 // entries per backend
	routedKeySpace  = routedBackends * routedCapacity
	routedStreamLen = 1 << 19
	// routedRate is the offered load in gets per second, over all
	// connections: about a quarter of what two connections sustain
	// closed-loop through the router (about 25k gets/s on a 2-vCPU x86-64
	// runner). At half, stalls on a shared runner left the generator
	// milliseconds behind schedule at p99.
	routedRate = 6000
	// routedMaxLagUs is the generator's limit: a run whose sends ran later
	// than this behind schedule at the 99th percentile, or that completed
	// under routedMinShare of its scheduled gets, is invalid.
	routedMaxLagUs = 5000
	routedMinShare = 0.95
)

// routedInputs are routed-read's generated inputs.
type routedInputs struct {
	keys    [][]byte
	streams [][]uint32
}

func routedGenerate(seed int64, nproc int) routedInputs {
	in := routedInputs{keys: keyTable(seed, routedKeySpace), streams: make([][]uint32, nproc)}
	for g := range in.streams {
		ranks := zipfStream(seed, g, routedKeySpace, routedStreamLen)
		s := make([]uint32, len(ranks))
		for i, r := range ranks {
			s[i] = uint32(r)
		}
		in.streams[g] = s
	}
	return in
}

// routedTier is the router, its server, and the backends behind it.
type routedTier struct {
	backends []*served
	kvs      []*concurrent.KV
	router   *cluster.Router
	front    *served
}

func (r *routedTier) stop() {
	if r.front != nil {
		r.front.stop()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, b := range r.backends {
		b.stop()
	}
}

// startRouted builds two entry-capped qdlp backends and a router in front
// (default replicas and hot-key threshold, probing off), warmed by filling
// each key of the streams' first part into its owner directly.
func startRouted(b *bench, in routedInputs, t *tracer) (*routedTier, error) {
	tier := &routedTier{}
	var addrs []string
	for i := 0; i < routedBackends; i++ {
		inner, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(routedCapacity), concurrent.WithShards(kvShards))
		if err != nil {
			tier.stop()
			return nil, err
		}
		kv := concurrent.NewKV(inner, kvShards)
		var store server.Store = kv
		if t != nil {
			store = newTracedStore(kv, t, lBackend, lRouter)
		}
		s, err := serve(store)
		if err != nil {
			tier.stop()
			return nil, err
		}
		tier.backends = append(tier.backends, s)
		tier.kvs = append(tier.kvs, kv)
		addrs = append(addrs, s.addr)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: addrs, Seed: b.seed})
	if err != nil {
		tier.stop()
		return nil, err
	}
	tier.router = router
	byAddr := map[string]*concurrent.KV{}
	for i, a := range addrs {
		byAddr[a] = tier.kvs[i]
	}
	val := make([]byte, 0, kvValueLen)
	pad := padding(kvValueLen)
	var buf []byte
	for _, s := range in.streams {
		for _, k := range s[:routedCapacity] {
			key := in.keys[k]
			kv := byAddr[router.Ring().Lookup(concurrent.Digest(key))]
			var ok bool
			if buf, _, _, ok = kv.Get(buf[:0], key); !ok {
				kv.Set(key, valueFor(val, key, pad, kvValueLen), 0)
			}
		}
	}
	var front server.Store = router
	if t != nil {
		front = newTracedStore(router, t, lRouter, lServer)
	}
	if tier.front, err = serve(front); err != nil {
		tier.stop()
		return nil, err
	}
	return tier, nil
}

// runRouted sends nproc connections through a router to two backends as
// an open loop at routedRate gets per second: read-mostly Zipf keys, a
// fill on a miss, every get timed from when it was due.
func runRouted(b *bench, traced bool, seconds float64, reps int) (*phase, error) {
	p := &phase{layers: map[string]float64{}}
	var (
		in   routedInputs
		tier *routedTier
	)
	if traced {
		p.tracer = newTracer(1<<20, 64, 16)
	}
	for rep := 0; rep < reps; rep++ {
		if tier != nil {
			tier.stop()
		}
		tier, in = nil, routedInputs{}
		t0 := time.Now()
		in = routedGenerate(b.seed, b.nproc)
		gen := time.Since(t0)
		var err error
		if tier, err = startRouted(b, in, p.tracer); err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.genS = append(p.genS, gen.Seconds())
	}
	defer tier.stop()

	clients := make([]*server.Client, b.nproc)
	for g := range clients {
		c, err := server.Dial(tier.front.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[g] = c
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		loops = make([]*loop, b.nproc)
		lags  = make([]*latencies, b.nproc)
		// Any connection may send any share of the schedule, so each
		// goroutine's buffers hold the whole run's gets.
		total = int(seconds * routedRate)
		recs  = newRecorders(b.nproc, total/nWindows+1024)
	)
	runtime.GC() // start measuring with the set-ups' garbage collected
	interval := int64(time.Second) / routedRate
	start := startWindows(recs, seconds).start
	end := start + int64(seconds*1e9)
	for g := range clients {
		lags[g] = newLatencies(total + 1024)
		loops[g] = &loop{c: clients[g], keys: in.keys, pad: padding(kvValueLen), t: p.tracer, first: g == 0, rec: recs[g]}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			loops[g].open(in.streams, &next, start, interval, end, lags[g])
		}(g)
	}
	wg.Wait()
	p.elapsed = time.Duration(now() - start)
	if p.tracer != nil {
		p.tracer.on.Store(false)
	}
	p.addLoops(loops)
	p.collect(recs)

	lag := merge(lags...)
	lagP99, _ := percentile(lag, 0.99)
	scheduled := float64(seconds) * routedRate
	p.info = append(p.info, fmt.Sprintf("send_lag_p99_us %.3f us (%s); %d of %.0f scheduled gets sent at %d gets/s offered",
		lagP99/1e3, fmtCount(len(lag)), p.gets, scheduled, routedRate))
	b.check(lagP99/1e3 <= routedMaxLagUs, "invalid run: generator fell %.0f us behind schedule at p99 (limit %d us)", lagP99/1e3, routedMaxLagUs)
	b.check(float64(p.ops) >= routedMinShare*scheduled, "invalid run: %d of %.0f scheduled ops completed", p.ops, scheduled)
	p.layers["loadgen.send_lag_p99_us"] = lagP99 / 1e3

	st, err := readStats(clients[0])
	if err != nil {
		return nil, fmt.Errorf("router stats: %v", err)
	}
	checkServerStats(b, st, p.gets, p.hits)
	st.layer(p.layers)
	for i, kv := range tier.kvs {
		b.check(kv.Items() <= routedCapacity, "backend %d holds %d items over capacity %d", i, kv.Items(), routedCapacity)
	}
	nodes, hot, _, _, _, _ := tier.router.Snapshot()
	var routed, replica int64
	for _, n := range nodes {
		routed += n.RoutedGet
		replica += n.ReplicaReads
		b.check(n.ForwardErrors == 0, "router saw %d forward errors to %s", n.ForwardErrors, n.Addr)
	}
	p.layers["router.replica_read_share"] = ratio(float64(replica), float64(routed))
	p.layers["router.hot_keys"] = float64(hot)
	p.info = append(p.info, fmt.Sprintf("router: %d routed gets, %d replica reads, %d hot keys", routed, replica, hot))
	return p, nil
}

// open serves one open-loop schedule shared by every connection, as
// independent callers arrive at a router: get i is due at
// first+i*interval, and the next free connection takes it and sends it
// then, or at once if it is late. A goroutine the host stalls delays the
// get it holds, not every later get on its connection. Get i reads the
// streams in turn, streams[i%n] at position routedCapacity+i/n. Each get
// is timed from when it was due; lags records how late each was sent.
// The loop stops at end even if gets are still due, so a backlog shows as
// gets not sent.
func (l *loop) open(streams [][]uint32, next *atomic.Int64, first, interval, end int64, lags *latencies) {
	pc := newPacer()
	defer pc.close()
	n := int64(len(streams))
	for {
		i := next.Add(1) - 1
		due := first + i*interval
		if due >= end || now() >= end {
			return
		}
		if wait := due - now(); wait > 0 {
			pc.sleep(wait)
		}
		lags.add(now() - due)
		s := streams[i%n]
		l.op(s[(routedCapacity+i/n)%int64(len(s))], due)
	}
}
