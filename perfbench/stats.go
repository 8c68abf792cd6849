package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/server"
)

// minTail is how many samples must lie beyond the highest percentile the
// benchmark prints; a percentile with fewer is noise, not a tail.
const minTail = 10

// latencies collects per-operation durations in nanoseconds. Each load
// goroutine owns one, preallocated before the measured phase so recording
// never allocates; once full, further samples are counted but not kept.
type latencies struct {
	ns      []uint32
	dropped int64
}

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]uint32, 0, capacity)}
}

func (l *latencies) add(d int64) {
	if len(l.ns) == cap(l.ns) {
		l.dropped++
		return
	}
	if d < 0 {
		d = 0
	} else if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	l.ns = append(l.ns, uint32(d))
}

// merge pools the kept samples of ls into one sorted slice.
func merge(ls ...*latencies) []uint32 {
	n := 0
	for _, l := range ls {
		n += len(l.ns)
	}
	out := make([]uint32, 0, n)
	for _, l := range ls {
		out = append(out, l.ns...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the p-quantile of sorted samples and whether at
// least minTail samples lie beyond the ones it uses — the rule for printing
// a percentile at all. The value is the mean of the samples within 0.05%
// of the nearest rank on either side, so it resolves below the clock's
// nanosecond and moves smoothly between runs.
func percentile(sorted []uint32, p float64) (ns float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	h := n / 2000
	lo, hi := idx-h, idx+h
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	var sum float64
	for _, x := range sorted[lo : hi+1] {
		sum += float64(x)
	}
	return sum / float64(hi-lo+1), n-1-hi >= minTail
}

// nWindows is how many equal spans of time a measured phase is split into.
// ops_s and each latency percentile are the median over the windows, so a
// burst of noise from the runner's neighbours moves one window, not the
// run's figure.
const nWindows = 10

// windows maps a time to its window of the measured phase.
type windows struct{ start, width int64 }

func newWindows(start int64, seconds float64) windows {
	return windows{start: start, width: int64(seconds * 1e9 / nWindows)}
}

func (w windows) index(t int64) int {
	i := int((t - w.start) / w.width)
	switch {
	case i < 0:
		return 0
	case i >= nWindows:
		return nWindows - 1
	}
	return i
}

// recorder is one load goroutine's completed ops and latencies, by window.
type recorder struct {
	w        windows
	ops      [nWindows]int64
	get, set [nWindows]*latencies
}

// newRecorders allocates one recorder per load goroutine. Workloads that
// report heap call it before taking the heap baseline, so the sample
// buffers do not count as cache memory.
func newRecorders(n, perWindow int) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		r := &recorder{}
		for w := range r.get {
			r.get[w], r.set[w] = newLatencies(perWindow), newLatencies(perWindow)
		}
		recs[i] = r
	}
	return recs
}

// startWindows begins the measured phase's windows on every recorder.
func startWindows(recs []*recorder, seconds float64) windows {
	w := newWindows(now(), seconds)
	for _, r := range recs {
		r.w = w
	}
	return w
}

// tally counts the operations of a measured phase. Every operation is
// attempted once; one that failed (transport or protocol error), was
// refused (the server answered busy or an error), or returned a value
// other than the one stored under its key counts against error_ratio.
type tally struct {
	attempted, failed, refused, wrong int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.wrong += o.wrong
}

// fail counts one operation that returned err: a busy or error answer
// from the server is a refusal, a broken connection a failure.
func (t *tally) fail(err error) {
	if errors.Is(err, server.ErrServerBusy) || !server.IsTransportErr(err) {
		t.refused++
		return
	}
	t.failed++
}

func (t tally) errors() int64 { return t.failed + t.refused + t.wrong }

// errorRatio is errors over attempts; a run that attempted nothing failed
// entirely.
func (t tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.errors()) / float64(t.attempted)
}

// userBytes is the payload a KV holds: concurrent.KV.Bytes counts value
// bytes only, and every key the benchmark stores has the same length.
func userBytes(valueBytes, items int64, keyLen int) int64 {
	return valueBytes + items*int64(keyLen)
}

// heapPerUserByte is the live heap the cache added (after minus before,
// both after a forced GC) per byte of cached key and value. It is a ratio,
// so a cache that fills fuller does not read as a memory regression.
func heapPerUserByte(before, after uint64, user int64) float64 {
	if user <= 0 || after <= before {
		return 0
	}
	return float64(after-before) / float64(user)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// median returns the middle value (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// epoch anchors now(); time.Since reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func fmtCount(n int) string { return fmt.Sprintf("n=%d", n) }
