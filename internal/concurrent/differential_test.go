package concurrent

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/policy/qdlp"
	"repro/internal/trace"
	"repro/internal/workload"

	_ "repro/internal/policy/clock"
	_ "repro/internal/policy/lru"
	_ "repro/internal/policy/sieve"
)

// The served caches must run exactly the algorithms the simulator's
// figures measure. A one-shard served cache and its simulator counterpart
// replay the same trace — a Get, then a Set on a miss, against a single
// Access — and must agree on every hit and miss, with and without
// interleaved deletes, and end holding the same number of objects.
func TestServedMatchesSimulator(t *testing.T) {
	const capacity = 4096
	const cost = 100 // the one uniform object cost of the byte-mode runs

	zipf := workload.NewZipf(rand.New(rand.NewSource(1)), 8192, 1.0)
	traces := []struct {
		name string
		keys []uint64
	}{{name: "zipf", keys: make([]uint64, 120000)}}
	for i := range traces[0].keys {
		traces[0].keys[i] = uint64(zipf.Next())
	}
	for _, fam := range []workload.Family{workload.MSRLike(), workload.TwitterLike()} {
		tr := fam.Generate(3, 40000, 120000)
		keys := make([]uint64, len(tr.Requests))
		for i, r := range tr.Requests {
			keys[i] = r.Key
		}
		traces = append(traces, struct {
			name string
			keys []uint64
		}{fam.Name, keys})
	}

	ablation := QDLPOptions{ProbationFrac: 0.25, ClockBits: 1}
	pairs := []struct {
		name   string
		served func() (Cache, error)
		sim    func() core.Policy
	}{
		{"lru", entryCache("lru"), simPolicy("lru")},
		{"clock", entryCache("clock"), simPolicy("clock-2bit")},
		{"sieve", entryCache("sieve"), simPolicy("sieve")},
		{"qdlp", entryCache("qdlp"), simPolicy("qd-lp-fifo")},
		{"qdlp-p25-1bit", entryCache("qdlp", WithQDLPOptions(ablation)), func() core.Policy {
			return qdlp.NewWithOptions(capacity, qdlp.Options{ProbationFrac: ablation.ProbationFrac, ClockBits: ablation.ClockBits})
		}},
		{"byte-lru", byteCache("lru", capacity*cost), simPolicy("lru")},
		{"byte-clock", byteCache("clock", capacity*cost), simPolicy("clock-2bit")},
		{"byte-sieve", byteCache("sieve", capacity*cost), simPolicy("sieve")},
	}
	for _, pair := range pairs {
		for _, tr := range traces {
			for _, deleteEvery := range []int{0, 50} {
				name := pair.name + "/" + tr.name
				if deleteEvery > 0 {
					name += "/deletes"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					c, err := pair.served()
					if err != nil {
						t.Fatal(err)
					}
					p := pair.sim()
					rm, ok := p.(core.Remover)
					if !ok {
						t.Fatalf("simulator %s cannot remove", p.Name())
					}
					for i, key := range tr.keys {
						if deleteEvery > 0 && i%deleteEvery == deleteEvery-1 {
							if got, want := c.Delete(key), rm.Remove(key); got != want {
								t.Fatalf("request %d: Delete(%d) = %v, simulator Remove = %v", i, key, got, want)
							}
							continue
						}
						_, hit := c.Get(key)
						if !hit {
							c.Set(key, cost)
						}
						if want := p.Access(&trace.Request{Key: key, Size: 1, Time: int64(i)}); hit != want {
							t.Fatalf("request %d (key %d): served hit=%v, simulator %s hit=%v", i, key, hit, p.Name(), want)
						}
					}
					if c.Len() != p.Len() {
						t.Fatalf("served Len %d, simulator Len %d", c.Len(), p.Len())
					}
				})
			}
		}
	}
}

func entryCache(policy string, opts ...Option) func() (Cache, error) {
	return func() (Cache, error) {
		return New(policy, 4096, append([]Option{WithShards(1)}, opts...)...)
	}
}

func byteCache(policy string, maxBytes int64) func() (Cache, error) {
	return func() (Cache, error) { return New(policy, 0, WithMaxBytes(maxBytes), WithShards(1)) }
}

func simPolicy(name string) func() core.Policy {
	return func() core.Policy { return core.MustNew(name, 4096) }
}
