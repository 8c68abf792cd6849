package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// calibrate measures the runner's parallel ceiling: the ops/s of a
// pure-compute loop (no memory traffic, no sharing) at n goroutines divided
// by its ops/s at one. On an idle machine with n free cores it reads n; a
// noisy neighbour or a CPU quota reads lower, and no cache can scale past
// it.
func calibrate(n int, d time.Duration) float64 {
	one := spin(1, d)
	return ratio(spin(n, d), one)
}

// spinSink keeps the compute loop's result observable.
var spinSink atomic.Uint64

func spin(goroutines int, d time.Duration) float64 {
	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			var ops int64
			for !stop.Load() {
				for i := 0; i < 1024; i++ {
					x = splitmix(x)
				}
				ops += 1024
			}
			total.Add(ops)
			spinSink.Add(x)
		}(uint64(g))
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// splitmix is the SplitMix64 step: cheap, register-only mixing, used for
// the compute loop and to scatter key names.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
