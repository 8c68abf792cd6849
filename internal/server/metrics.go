package server

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/overload"
)

// Metric family names shared by the server and the load client. Families
// that both sides report carry a `side` label ("server" or "client") so the
// two ends of one run line up series for series and bucket for bucket —
// the hit-ratio-and-throughput-together discipline the serving-stack
// literature calls for.
const (
	// MetricRequestsTotal counts requests by command (labels: side, cmd).
	MetricRequestsTotal = "cache_requests_total"
	// MetricRequestDuration is the per-command request-latency histogram in
	// seconds (labels: side, cmd), bucketed by metrics.DefLatencyBuckets on
	// both sides.
	MetricRequestDuration = "cache_request_duration_seconds"
	// MetricHits / MetricMisses partition lookups and MetricSets counts
	// writes (labels: side, and policy on the server side).
	MetricHits   = "cache_hits_total"
	MetricMisses = "cache_misses_total"
	MetricSets   = "cache_sets_total"

	// The server's own scalar families (store occupancy, transport,
	// resilience, batching, limiter gauges) are named in counterTable.

	// Per-shard policy-plane balance (labels: policy, shard).
	MetricShardItems     = "cache_shard_items"
	MetricShardEvictions = "cache_shard_evictions_total"

	// Observability-plane counters: how much the lifecycle-event and
	// request-span rings have recorded and shed. A climbing dropped count
	// means the retained window is shorter than the scrape interval.
	MetricObsEvents        = "cache_obs_events_total"
	MetricObsEventsDropped = "cache_obs_events_dropped_total"
	MetricObsSpans         = "cache_obs_spans_total"
	MetricObsSpansDropped  = "cache_obs_spans_dropped_total"
	MetricObsSlowRequests  = "cache_obs_slow_requests_total"

	// Live-analytics families. cache_mrc_* expose the online SHARDS
	// miss-ratio estimator (-mrc-sample; absent without it);
	// cache_window_* aggregate the telemetry ring over sliding windows
	// (label: window = 1m|5m|1h).
	MetricMRCPredictedHitRatio = "cache_mrc_predicted_hit_ratio" // labels: scale (0.5x|1x|2x|4x)
	MetricMRCMarginalHit       = "cache_mrc_marginal_hit_ratio_per_mib"
	MetricMRCSampleRate        = "cache_mrc_sample_rate"
	MetricMRCTrackedKeys       = "cache_mrc_tracked_keys"
	MetricMRCSampledTotal      = "cache_mrc_sampled_accesses_total"
	MetricMRCDroppedTotal      = "cache_mrc_samples_dropped_total"
	MetricWindowHitRatio       = "cache_window_hit_ratio"
	MetricWindowOpsPerSec      = "cache_window_ops_per_sec"
	MetricWindowEvictions      = "cache_window_evictions"
	MetricWindowP50            = "cache_window_p50_request_seconds"
	MetricWindowP99            = "cache_window_p99_request_seconds"

	// Client-side resilience counters (side="client" families reported by
	// RunLoad's self-healing dialer).
	MetricClientErrors     = "cache_client_errors_total"
	MetricClientRetries    = "cache_client_retries_total"
	MetricClientReconnects = "cache_client_reconnects_total"

	// Cluster-tier families, reported by the router store
	// (internal/cluster) when cacheserver runs in -route mode. Per-node
	// families carry a node label (series appear as nodes join and persist
	// across a remove/rejoin, Prometheus-style).
	MetricClusterRouted          = "cache_cluster_routed_total"           // labels: node, op
	MetricClusterForwardErrors   = "cache_cluster_forward_errors_total"   // labels: node
	MetricClusterReplicaReads    = "cache_cluster_replica_reads_total"    // labels: node
	MetricClusterReplicaWrites   = "cache_cluster_replica_writes_total"   // labels: node
	MetricClusterNodes           = "cache_cluster_nodes"                  // gauge
	MetricClusterHotKeys         = "cache_cluster_hot_keys"               // gauge
	MetricClusterHotPromotions   = "cache_cluster_hot_promotions_total"   //
	MetricClusterHotDemotions    = "cache_cluster_hot_demotions_total"    //
	MetricClusterTopologyChanges = "cache_cluster_topology_changes_total" // labels: op

	// Overload-control families. The server-side limiter reports sheds by
	// reason plus its live limit/inflight/pending gauges and brownout
	// pressure level; the cluster tier reports per-backend breaker state
	// (0 closed / 1 open / 2 half-open), failure-detector health and phi,
	// ejection churn, and retry-budget exhaustion.
	MetricShedTotal            = "cache_shed_total"                      // labels: side, reason
	MetricBreakerState         = "cache_breaker_state"                   // labels: node
	MetricBreakerOpens         = "cache_breaker_opens_total"             // labels: node
	MetricNodeHealthy          = "cache_cluster_node_healthy"            // labels: node
	MetricNodePhi              = "cache_cluster_node_phi"                // labels: node
	MetricNodeEjections        = "cache_cluster_node_ejections_total"    // labels: node
	MetricNodeReadmissions     = "cache_cluster_node_readmissions_total" // labels: node
	MetricProbes               = "cache_cluster_probes_total"            // labels: node, result
	MetricRetryBudgetExhausted = "cache_retry_budget_exhausted_total"    // labels: side
)

// opNames maps Op to its cmd label value.
var opNames = [...]string{
	OpInvalid: "invalid",
	OpGet:     "get",
	OpGets:    "gets",
	OpSet:     "set",
	OpDelete:  "delete",
	OpStats:   "stats",
	OpQuit:    "quit",
	OpNoop:    "noop",
	OpVersion: "version",
	OpTouch:   "touch",
	OpGete:    "gete",
}

// serverMetrics holds the direct (non-func-backed) instruments the request
// loop records into. Per-command arrays are indexed by Op so the hot path
// does no map lookups; OpInvalid slots stay nil because dispatch never sees
// an invalid op.
type serverMetrics struct {
	requests [len(opNames)]*metrics.Counter
	duration [len(opNames)]*metrics.Histogram
}

// initMetrics registers every server instrument and collector into reg.
// Called once from New when Config.Metrics is set; with no registry the
// serving path records only the always-on atomic Counters.
func (s *Server) initMetrics(reg *metrics.Registry) {
	m := &serverMetrics{}
	for op := OpGet; int(op) < len(opNames); op++ {
		m.requests[op] = reg.Counter(MetricRequestsTotal,
			"Requests served, by command.",
			"side", "server", "cmd", opNames[op])
		m.duration[op] = reg.Histogram(MetricRequestDuration,
			"Request service latency in seconds (parse excluded), by command.",
			metrics.DefLatencyBuckets,
			"side", "server", "cmd", opNames[op])
	}

	policy := s.cfg.Store.Name()
	for i := range counterTable {
		r := &counterTable[i]
		if !s.hasRows(r.group) {
			continue
		}
		read := func() int64 { v := s.view(r.group); return r.read(&v) }
		if r.kind == metrics.KindGauge {
			reg.GaugeFunc(r.metric, r.help, func() float64 { return float64(read()) }, r.metricLabels(policy)...)
		} else {
			reg.CounterFunc(r.metric, r.help, read, r.metricLabels(policy)...)
		}
	}

	if l := s.limiter; l != nil {
		for _, r := range overload.ShedReasons() {
			reason := r
			reg.CounterFunc(MetricShedTotal, "Requests shed by the overload limiter, by reason.",
				func() int64 { return l.ShedCount(reason) },
				"side", "server", "reason", reason.String())
		}
	}

	if ev := s.cfg.Events; ev != nil {
		reg.CounterFunc(MetricObsEvents, "Lifecycle events recorded.", ev.Total)
		reg.CounterFunc(MetricObsEventsDropped, "Lifecycle events overwritten before being read.", ev.Dropped)
	}
	if sp := s.spans; sp != nil {
		reg.CounterFunc(MetricObsSpans, "Request spans recorded.", sp.Total)
		reg.CounterFunc(MetricObsSpansDropped, "Request spans overwritten before being read.", sp.Dropped)
		reg.CounterFunc(MetricObsSlowRequests, "Spans recorded for crossing the slow-request threshold.", sp.SlowCount)
	}

	registerShardMetrics(reg, s.cfg.Store)
	s.metrics = m
	// After s.metrics is set: the windowed families' latency percentiles
	// read the per-command histograms registered above.
	s.initAnalyticsMetrics(reg)
}

// registerShardMetrics exposes each policy shard's occupancy and
// evictions, the per-shard balance the counter table's aggregate rows
// cannot show.
func registerShardMetrics(reg *metrics.Registry, store Store) {
	policy := store.Name()
	for i := range store.ShardStats() {
		shard := strconv.Itoa(i)
		reg.GaugeFunc(MetricShardItems, "Objects cached in one policy shard.",
			func() float64 { return float64(store.ShardStats()[i].Len) },
			"policy", policy, "shard", shard)
		reg.CounterFunc(MetricShardEvictions, "Evictions from one policy shard.",
			func() int64 { return store.ShardStats()[i].Evictions },
			"policy", policy, "shard", shard)
	}
}
