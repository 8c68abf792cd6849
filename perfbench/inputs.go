package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// keyLen is the length of every key the benchmark stores.
const keyLen = 16

const hexDigits = "0123456789abcdef"

// keyTable returns n distinct fixed-length key names for seed. Rank i of a
// Zipf stream addresses keys[i]; the names are scattered by SplitMix64 (a
// bijection, so distinct ranks give distinct keys).
func keyTable(seed int64, n int) [][]byte {
	buf := make([]byte, n*keyLen)
	keys := make([][]byte, n)
	salt := splitmix(uint64(seed))
	for i := range keys {
		k := buf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		x := splitmix(salt + uint64(i))
		for j := keyLen - 1; j >= 0; j-- {
			k[j] = hexDigits[x&15]
			x >>= 4
		}
		keys[i] = k
	}
	return keys
}

// zipfStream draws length Zipf(1.0) ranks over n keys for one load
// goroutine or connection; each stream has its own generator.
func zipfStream(seed int64, stream, n, length int) []int32 {
	z := workload.NewZipf(rand.New(rand.NewSource(seed*7919+int64(stream))), n, 1.0)
	s := make([]int32, length)
	for i := range s {
		s[i] = int32(z.Next())
	}
	return s
}

// valueSizes gives each of keyTable(seed, n)'s keys a log-normal value
// size with the given median, through workload.AssignSizes, so a key keeps
// its size across runs.
func valueSizes(seed int64, n, medianBytes int) []int32 {
	tr := &trace.Trace{Requests: make([]trace.Request, n)}
	salt := splitmix(uint64(seed))
	for i := range tr.Requests {
		tr.Requests[i].Key = splitmix(salt + uint64(i))
	}
	workload.AssignSizes(tr, medianBytes)
	sizes := make([]int32, n)
	for i := range sizes {
		sizes[i] = int32(tr.Requests[i].Size)
	}
	return sizes
}

// valueFor builds the value stored under key: the key, a colon, and
// padding to size bytes. Every hit is checked against it, so a value
// served for the wrong key (or cut short) is caught.
func valueFor(dst, key, pad []byte, size int) []byte {
	dst = append(dst[:0], key...)
	dst = append(dst, ':')
	return append(dst, pad[:size-len(dst)]...)
}

func valueOK(v, key []byte, size int) bool {
	return len(v) == size && bytes.HasPrefix(v, key) && v[len(key)] == ':'
}

// padding returns n filler bytes for valueFor.
func padding(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

// served is one in-process server listening on loopback.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

// serve starts a server for store on an ephemeral loopback port with the
// cacheserver defaults (listeners = GOMAXPROCS, batch IO on).
func serve(store server.Store) (*served, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.ListenAndServe() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if a := srv.Addr(); a != nil {
			s.addr = a.String()
			return s, nil
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("listen: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server did not start listening")
		}
	}
}

// stop drains the server and waits for its serve loop to return.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

// serverStats reads the server-side counters the checks and the server
// layer's metrics use.
type serverStats struct {
	cmdGet, getHits, getMisses, cmdSet, cmdDelete int64
	usedBytes, maxBytes, items                    int64
	flushes, localOps, crossCoreOps               int64
}

func readStats(c *server.Client) (serverStats, error) {
	m, err := c.Stats()
	if err != nil {
		return serverStats{}, err
	}
	var s serverStats
	for _, f := range []struct {
		name string
		dst  *int64
	}{
		{"cmd_get", &s.cmdGet}, {"get_hits", &s.getHits}, {"get_misses", &s.getMisses},
		{"cmd_set", &s.cmdSet}, {"cmd_delete", &s.cmdDelete},
		{"used_bytes", &s.usedBytes}, {"max_bytes", &s.maxBytes}, {"curr_items", &s.items},
		{"flushes", &s.flushes}, {"local_ops", &s.localOps}, {"cross_core_ops", &s.crossCoreOps},
	} {
		if *f.dst, err = server.StatInt(m, f.name); err != nil {
			return s, err
		}
	}
	return s, nil
}

// serverLayer derives the server layer's stats-based metrics.
func (s serverStats) layer(into map[string]float64) {
	into["server.cmds_per_flush"] = ratio(float64(s.cmdGet+s.cmdSet+s.cmdDelete), float64(s.flushes))
	into["server.cross_core_share"] = ratio(float64(s.crossCoreOps), float64(s.localOps+s.crossCoreOps))
}
