package server

import (
	"sync/atomic"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/overload"
)

// Counters are the server's operation counters. Everything is a plain
// atomic so the hit path never takes a lock for accounting; stats and
// metrics reads are snapshots, not transactions.
type Counters struct {
	Gets       atomic.Int64 // per key requested, so GetHits+GetMisses == Gets
	GetHits    atomic.Int64
	GetMisses  atomic.Int64
	Sets       atomic.Int64
	Deletes    atomic.Int64
	DeleteHits atomic.Int64
	Touches    atomic.Int64
	TouchHits  atomic.Int64

	BadCommands atomic.Int64

	// BytesRead counts value payload bytes received in set commands;
	// BytesWritten counts value payload bytes sent in get responses.
	// Protocol framing is excluded on both sides.
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64

	CurrConns     atomic.Int64
	TotalConns    atomic.Int64
	RejectedConns atomic.Int64

	// Resilience counters: transient accept errors survived with backoff,
	// slow readers evicted at the write deadline, and handler panics
	// isolated to their connection. In a healthy deployment all three stay
	// flat; any climbing is an operational signal, not just a statistic.
	AcceptRetries   atomic.Int64
	SlowConnsClosed atomic.Int64
	Panics          atomic.Int64

	// Batched data-plane counters. Flushes counts response deliveries to
	// the socket (writev calls in batched mode, bufio flushes otherwise);
	// Batches/BatchedReqs count merged get dispatches and the pipelined
	// requests they covered, so BatchedReqs/Flushes is the syscall
	// amortization ratio and BatchedReqs/Batches the merge depth.
	Flushes     atomic.Int64
	Batches     atomic.Int64
	BatchedReqs atomic.Int64

	// Shard-partition locality: keys served by the partition that owns
	// their data shard vs keys that crossed partitions (and may contend on
	// another core's shard locks). Both stay 0 when the store exposes no
	// topology or a single listener serves.
	LocalOps     atomic.Int64
	CrossCoreOps atomic.Int64
}

// rowGroup names the source a counter-table row reads. The group also
// fixes the row's metric labels: Counters and limiter rows are unlabeled;
// store rows carry policy, and store counters also side="server" so they
// pair with the load client's families of the same name.
type rowGroup uint8

const (
	fromCounters rowGroup = 1 << iota // the Counters atomics
	fromStore                         // the store and its snapshot
	fromLimiter                       // the overload limiter; rows appear only when one is configured
)

// counterRow is one number the server reports: one STAT line of the stats
// response and one series of /metrics, both read through the same func.
type counterRow struct {
	group  rowGroup
	kind   metrics.Kind // KindCounter or KindGauge
	stat   string
	metric string
	help   string
	read   func(*statView) int64
}

// statView is what rows read: the live counters and store, plus one
// snapshot each of the store and the limiter.
type statView struct {
	c     *Counters
	store Store
	snap  concurrent.Snapshot
	lim   overload.LimiterSnapshot
}

// view takes the snapshots the given groups read, so a metric collector
// for a Counters row costs one atomic load.
func (s *Server) view(groups rowGroup) statView {
	v := statView{c: &s.counters, store: s.cfg.Store}
	if groups&fromStore != 0 {
		v.snap = s.cfg.Store.Stats()
	}
	if groups&fromLimiter != 0 {
		v.lim = s.limiter.Snapshot()
	}
	return v
}

// hasRows reports whether the rows of group g apply to this server.
func (s *Server) hasRows(g rowGroup) bool { return g != fromLimiter || s.limiter != nil }

// metricLabels returns r's label pairs on /metrics.
func (r *counterRow) metricLabels(policy string) []string {
	switch {
	case r.group != fromStore:
		return nil
	case r.kind == metrics.KindCounter:
		return []string{"side", "server", "policy", policy}
	default:
		return []string{"policy", policy}
	}
}

// counterTable is every scalar the server reports for itself, its store
// and its limiter. writeStats prints each row as a STAT line (in table
// order, after the fixed header) and initMetrics registers each as a
// func-backed series, so a number added here appears on both surfaces
// and nowhere else needs to know it.
var counterTable = []counterRow{
	{fromStore, metrics.KindGauge, "capacity_items", "cache_capacity_items",
		"Configured capacity in objects.",
		func(v *statView) int64 { return int64(v.store.Capacity()) }},
	{fromStore, metrics.KindGauge, "curr_items", "cache_items",
		"Objects currently cached.",
		func(v *statView) int64 { return v.store.Items() }},
	{fromStore, metrics.KindGauge, "curr_bytes", "cache_value_bytes",
		"Value bytes currently cached.",
		func(v *statView) int64 { return v.store.Bytes() }},
	{fromStore, metrics.KindGauge, "used_bytes", "cache_used_bytes",
		"Accounted bytes currently cached (key+value+overhead).",
		func(v *statView) int64 { return v.snap.UsedBytes }},
	{fromStore, metrics.KindGauge, "max_bytes", "cache_max_bytes",
		"Configured byte budget (0 when capped by entries).",
		func(v *statView) int64 { return v.snap.MaxBytes }},
	{fromStore, metrics.KindCounter, "expired_proactive", "cache_expired_proactive_total",
		"Objects reclaimed proactively by the TTL timer wheel.",
		func(v *statView) int64 { return v.snap.Expired }},
	{fromStore, metrics.KindCounter, "evictions", "cache_evictions_total",
		"Objects evicted to make room.",
		func(v *statView) int64 { return v.snap.Evictions }},
	{fromStore, metrics.KindCounter, "store_hits", MetricHits,
		"Store lookups that found the key.",
		func(v *statView) int64 { return v.snap.Hits }},
	{fromStore, metrics.KindCounter, "store_misses", MetricMisses,
		"Store lookups that missed.",
		func(v *statView) int64 { return v.snap.Misses }},
	{fromStore, metrics.KindCounter, "store_sets", MetricSets,
		"Store writes (inserts and overwrites).",
		func(v *statView) int64 { return v.snap.Sets }},
	{fromStore, metrics.KindCounter, "store_deletes", "cache_deletes_total",
		"Store deletes that removed a key.",
		func(v *statView) int64 { return v.snap.Deletes }},

	{fromCounters, metrics.KindCounter, "cmd_get", "cache_server_cmd_get_total",
		"Keys requested by get, gets and gete (get_hits + get_misses).",
		func(v *statView) int64 { return v.c.Gets.Load() }},
	{fromCounters, metrics.KindCounter, "get_hits", "cache_server_get_hits_total",
		"Requested keys answered with a value.",
		func(v *statView) int64 { return v.c.GetHits.Load() }},
	{fromCounters, metrics.KindCounter, "get_misses", "cache_server_get_misses_total",
		"Requested keys answered without a value.",
		func(v *statView) int64 { return v.c.GetMisses.Load() }},
	{fromCounters, metrics.KindCounter, "cmd_set", "cache_server_cmd_set_total",
		"Set commands served.",
		func(v *statView) int64 { return v.c.Sets.Load() }},
	{fromCounters, metrics.KindCounter, "cmd_delete", "cache_server_cmd_delete_total",
		"Delete commands served.",
		func(v *statView) int64 { return v.c.Deletes.Load() }},
	{fromCounters, metrics.KindCounter, "delete_hits", "cache_server_delete_hits_total",
		"Delete commands that removed a key.",
		func(v *statView) int64 { return v.c.DeleteHits.Load() }},
	{fromCounters, metrics.KindCounter, "cmd_touch", "cache_server_cmd_touch_total",
		"Touch commands served.",
		func(v *statView) int64 { return v.c.Touches.Load() }},
	{fromCounters, metrics.KindCounter, "touch_hits", "cache_server_touch_hits_total",
		"Touch commands that found the key.",
		func(v *statView) int64 { return v.c.TouchHits.Load() }},
	{fromCounters, metrics.KindCounter, "bad_commands", "cache_server_bad_commands_total",
		"Protocol errors answered on kept connections.",
		func(v *statView) int64 { return v.c.BadCommands.Load() }},
	{fromCounters, metrics.KindCounter, "bytes_read", "cache_server_value_bytes_read_total",
		"Value payload bytes received in set commands.",
		func(v *statView) int64 { return v.c.BytesRead.Load() }},
	{fromCounters, metrics.KindCounter, "bytes_written", "cache_server_value_bytes_written_total",
		"Value payload bytes sent in get responses.",
		func(v *statView) int64 { return v.c.BytesWritten.Load() }},
	{fromCounters, metrics.KindGauge, "curr_connections", "cache_server_connections_current",
		"Open client connections.",
		func(v *statView) int64 { return v.c.CurrConns.Load() }},
	{fromCounters, metrics.KindCounter, "total_connections", "cache_server_connections_total",
		"Connections accepted since start.",
		func(v *statView) int64 { return v.c.TotalConns.Load() }},
	{fromCounters, metrics.KindCounter, "rejected_connections", "cache_server_connections_rejected_total",
		"Connections rejected over MaxConns.",
		func(v *statView) int64 { return v.c.RejectedConns.Load() }},
	{fromCounters, metrics.KindCounter, "conns_slow_closed", "cache_server_connections_slow_closed_total",
		"Slow readers evicted at the write deadline.",
		func(v *statView) int64 { return v.c.SlowConnsClosed.Load() }},
	{fromCounters, metrics.KindCounter, "accept_retries", "cache_server_accept_retries_total",
		"Transient accept errors survived with backoff.",
		func(v *statView) int64 { return v.c.AcceptRetries.Load() }},
	{fromCounters, metrics.KindCounter, "panics", "cache_server_panics_total",
		"Connection-handler panics isolated (conn closed, server kept serving).",
		func(v *statView) int64 { return v.c.Panics.Load() }},
	{fromCounters, metrics.KindCounter, "flushes", "cache_server_flushes_total",
		"Response deliveries to the socket (writev calls in batched mode).",
		func(v *statView) int64 { return v.c.Flushes.Load() }},
	{fromCounters, metrics.KindCounter, "batches", "cache_server_batches_total",
		"Merged get dispatches (one shard-batched lookup each).",
		func(v *statView) int64 { return v.c.Batches.Load() }},
	{fromCounters, metrics.KindCounter, "batched_requests", "cache_server_batched_requests_total",
		"Pipelined requests covered by merged dispatches.",
		func(v *statView) int64 { return v.c.BatchedReqs.Load() }},
	{fromCounters, metrics.KindCounter, "local_ops", "cache_server_local_ops_total",
		"Keys served by the shard partition that owns them.",
		func(v *statView) int64 { return v.c.LocalOps.Load() }},
	{fromCounters, metrics.KindCounter, "cross_core_ops", "cache_server_cross_core_ops_total",
		"Keys that crossed shard-partition boundaries.",
		func(v *statView) int64 { return v.c.CrossCoreOps.Load() }},

	{fromLimiter, metrics.KindGauge, "limiter_limit", "cache_limiter_limit",
		"Adaptive concurrency limit (AIMD against the p99 target).",
		func(v *statView) int64 { return int64(v.lim.Limit) }},
	{fromLimiter, metrics.KindGauge, "limiter_inflight", "cache_limiter_inflight",
		"Requests currently holding a limiter slot.",
		func(v *statView) int64 { return int64(v.lim.Inflight) }},
	{fromLimiter, metrics.KindGauge, "limiter_pending", "cache_limiter_pending",
		"Requests waiting in the bounded admission queue.",
		func(v *statView) int64 { return int64(v.lim.Pending) }},
	{fromLimiter, metrics.KindGauge, "pressure_level", "cache_pressure_level",
		"Brownout pressure level (0 healthy, 1 drop writes, 2 miss-fast reads).",
		func(v *statView) int64 { return int64(v.lim.Level) }},
	{fromLimiter, metrics.KindCounter, "shed_total", "cache_limiter_shed_total",
		"Requests shed by the overload limiter, all reasons (cache_shed_total splits them by reason).",
		func(v *statView) int64 { return v.lim.ShedTotal }},
	{fromLimiter, metrics.KindCounter, "breach_epochs", "cache_limiter_breach_epochs_total",
		"Limiter epochs whose p99 exceeded the target.",
		func(v *statView) int64 { return v.lim.BreachEpochs }},
}
