package server

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/metrics"
)

// AdminMux returns the server's HTTP admin surface, served on a separate
// listener from the cache protocol so operations traffic never competes
// with the hot path:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       200 while serving, 503 once draining
//	/debug/events  retained lifecycle events + sampled request spans
//	/debug/trace   one key's lifecycle history, optionally followed live
//	/debug/mrc     online SHARDS miss-ratio curve + capacity signals
//	/debug/series  windowed telemetry (1m/5m/1h hit ratio, ops, p50/p99)
//	/debug/pprof   CPU/heap/etc profiles — the instrumentation §3's
//	               measured-cost arguments depend on
//
// reg is typically the same registry passed in Config.Metrics; a nil reg
// omits /metrics.
func (s *Server) AdminMux(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	// The events endpoints stay mounted with tracing off: they answer with
	// empty sections, so dashboards need not special-case the config.
	mux.HandleFunc("/debug/events", s.handleDebugEvents)
	mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	// Analytics endpoints likewise stay mounted: /debug/mrc reports
	// disabled without -mrc-sample, /debug/series is always live.
	mux.HandleFunc("/debug/mrc", s.handleDebugMRC)
	mux.HandleFunc("/debug/series", s.handleDebugSeries)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
