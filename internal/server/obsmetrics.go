package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/obs"
)

// initMetrics builds the /metrics registry. Serving counters are exposed
// through scrape-time closures over the same atomics /stats reads, so
// the two endpoints can never disagree; database and WAL gauges read the
// currently-served dbState at scrape time, so they follow hot swaps.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	cf := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	cf("amber_queries_total", "Query requests accepted for processing.", &s.met.queries)
	cf("amber_query_cache_hits_total", "Queries answered from the result cache.", &s.met.cacheHits)
	cf("amber_query_cache_misses_total", "Queries that reached the engine.", &s.met.cacheMisses)
	cf("amber_rejected_total", "Requests shed by admission control (503).", &s.met.rejected)
	cf("amber_timeouts_total", "Queries aborted by the per-query timeout.", &s.met.timeouts)
	cf("amber_cancelled_total", "Queries aborted by client disconnect.", &s.met.cancelled)
	cf("amber_query_cancelled_admin_total", "Queries killed through the admin cancel surface.", &s.met.cancelledAdmin)
	cf("amber_query_resource_limited_total", "Queries cancelled by the max-query-visits guard.", &s.met.resourceLimited)
	cf("amber_parse_errors_total", "Requests rejected as malformed SPARQL.", &s.met.parseErrors)
	cf("amber_updates_total", "Update requests accepted for processing.", &s.met.updates)
	cf("amber_update_errors_total", "Updates that failed to parse or apply.", &s.met.updateErrors)
	r.GaugeFunc("amber_in_flight", "Engine executions currently running.",
		func() float64 { return float64(s.met.inFlight.Load()) })
	r.GaugeFunc("amber_inflight_queries", "Requests currently registered in the in-flight governance table.",
		func() float64 { return float64(s.inflight.Len()) })
	r.GaugeFunc("amber_ready", "1 when /readyz reports ready, 0 while draining for a reload.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("amber_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	s.queryHist = r.Histogram("amber_query_duration_seconds",
		"End-to-end latency of successfully answered queries.", obs.LatencyBuckets)
	s.updateHist = r.Histogram("amber_update_duration_seconds",
		"Latency of successfully applied updates.", obs.LatencyBuckets)
	s.stageHist = r.HistogramVec("amber_stage_duration_seconds",
		"Per-stage latency of query handling (parse_plan, execute, serialize).",
		"stage", obs.LatencyBuckets)

	s.engRecur = r.CounterVec("amber_engine_recursions_total",
		"HomomorphicMatch invocations, by query shape.", "shape")
	s.engInit = r.CounterVec("amber_engine_init_candidates_total",
		"Initial candidate-set sizes (|CandInit|), by query shape.", "shape")
	s.engSat = r.CounterVec("amber_engine_sat_probes_total",
		"Satellite candidate-set computations, by query shape.", "shape")
	s.engEmb = r.CounterVec("amber_engine_embeddings_total",
		"Embeddings enumerated, by query shape.", "shape")

	r.GaugeFunc("amber_swap_generation", "Hot swaps of the whole database (SIGHUP reload).",
		func() float64 { return float64(s.state.Load().gen) })
	r.GaugeFunc("amber_result_cache_entries", "Materialized result sets currently cached.",
		func() float64 { return float64(s.state.Load().results.Len()) })

	genF := func(f func(amber.GenerationStats) float64) func() float64 {
		return func() float64 { return f(s.state.Load().db.Generation()) }
	}
	r.GaugeFunc("amber_epoch", "Data version; moves on every update, compaction and clear.",
		genF(func(g amber.GenerationStats) float64 { return float64(g.Epoch) }))
	r.GaugeFunc("amber_generation", "Base-generation rebuilds (compactions and clears).",
		genF(func(g amber.GenerationStats) float64 { return float64(g.Generation) }))
	r.GaugeFunc("amber_delta_adds", "Added triples in the uncompacted overlay.",
		genF(func(g amber.GenerationStats) float64 { return float64(g.DeltaAdds) }))
	r.GaugeFunc("amber_delta_tombstones", "Tombstones in the uncompacted overlay.",
		genF(func(g amber.GenerationStats) float64 { return float64(g.DeltaTombstones) }))
	r.CounterFunc("amber_db_updates_total", "Mutation batches applied to the served database.",
		genF(func(g amber.GenerationStats) float64 { return float64(g.Updates) }))
	r.CounterFunc("amber_compactions_total", "Completed background compactions.",
		genF(func(g amber.GenerationStats) float64 { return float64(g.Compactions) }))
	r.GaugeFunc("amber_last_compaction_seconds", "Duration of the most recent compaction.",
		genF(func(g amber.GenerationStats) float64 { return g.LastCompaction.Seconds() }))

	durF := func(f func(amber.DurabilityStats) float64) func() float64 {
		return func() float64 { return f(s.state.Load().db.Durability()) }
	}
	r.GaugeFunc("amber_wal_enabled", "1 when the database was opened durably, 0 otherwise.",
		durF(func(d amber.DurabilityStats) float64 {
			if d.Enabled {
				return 1
			}
			return 0
		}))
	r.GaugeFunc("amber_wal_bytes", "Total size of live write-ahead log segments.",
		durF(func(d amber.DurabilityStats) float64 { return float64(d.WALBytes) }))
	r.GaugeFunc("amber_wal_segments", "Live write-ahead log segments.",
		durF(func(d amber.DurabilityStats) float64 { return float64(d.Segments) }))
	r.CounterFunc("amber_wal_appends_total", "Records appended to the write-ahead log.",
		durF(func(d amber.DurabilityStats) float64 { return float64(d.Appends) }))
	r.CounterFunc("amber_wal_fsyncs_total", "Fsyncs issued by the write-ahead log.",
		durF(func(d amber.DurabilityStats) float64 { return float64(d.Fsyncs) }))
	r.CounterFunc("amber_wal_checkpoints_total", "Checkpoints completed since open.",
		durF(func(d amber.DurabilityStats) float64 { return float64(d.Checkpoints) }))

	wsF := func(f func(amber.WriteStats) float64) func() float64 {
		return func() float64 { return f(s.state.Load().db.WriteStats()) }
	}
	r.CounterFunc("amber_commit_batches_total", "Records committed through the write path: update batches, and one per clear.",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.Batches) }))
	r.CounterFunc("amber_commit_groups_total",
		"Commit groups: one WAL append span (one fsync under fsync=always) per group.",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.Groups) }))
	r.GaugeFunc("amber_commit_group_max_size", "Largest commit group since the database opened.",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.MaxGroupSize) }))
	r.CounterFunc("amber_overlay_copied_entries_total",
		"Entries copied into fresh overlay bucket versions (copy-on-write effort; O(batch) per commit).",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.OverlayEntriesCopied) }))
	r.CounterFunc("amber_overlay_copied_bytes_total",
		"Estimated bytes retained by overlay copy-on-write bucket versions.",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.OverlayBytesCopied) }))
	r.GaugeFunc("amber_overlay_versions", "Retained bucket versions in the live overlay.",
		wsF(func(ws amber.WriteStats) float64 { return float64(ws.OverlayVersions) }))

	// Commit-group-size histogram, refreshed at scrape time from the
	// store's cumulative buckets. The collector adds per-scrape deltas so
	// the exposed counters stay monotone; a database hot swap resets the
	// source counters, detected by a shrinking total, and restarts the
	// deltas from zero (the pre-swap groups remain counted).
	groupSizes := r.CounterVec("amber_commit_group_size_total",
		"Commit groups by size bucket; le is the bucket's upper bound in batches.", "le")
	var gsMu sync.Mutex
	var gsPrev []uint64
	r.AddCollector(func() {
		ws := s.state.Load().db.WriteStats()
		labels := make([]string, len(ws.GroupSizeBuckets))
		for i := range labels {
			if i < len(ws.GroupSizeBounds) {
				labels[i] = strconv.FormatUint(ws.GroupSizeBounds[i], 10)
			} else {
				labels[i] = "+Inf"
			}
		}
		gsMu.Lock()
		defer gsMu.Unlock()
		if len(gsPrev) != len(ws.GroupSizeBuckets) {
			gsPrev = make([]uint64, len(ws.GroupSizeBuckets))
		}
		var newTotal, prevTotal uint64
		for i, v := range ws.GroupSizeBuckets {
			newTotal += v
			prevTotal += gsPrev[i]
		}
		if newTotal < prevTotal { // hot swap reset the source
			for i := range gsPrev {
				gsPrev[i] = 0
			}
		}
		for i, v := range ws.GroupSizeBuckets {
			if v > gsPrev[i] {
				groupSizes.With(labels[i]).Add(v - gsPrev[i])
			}
			gsPrev[i] = v
		}
	})

	dbF := func(f func(amber.Stats) float64) func() float64 {
		return func() float64 { return f(s.state.Load().db.Stats()) }
	}
	r.GaugeFunc("amber_db_triples", "RDF statements in the merged live view.",
		dbF(func(st amber.Stats) float64 { return float64(st.Triples) }))
	r.GaugeFunc("amber_db_vertices", "Distinct subject/object IRIs (|V|).",
		dbF(func(st amber.Stats) float64 { return float64(st.Vertices) }))
	r.GaugeFunc("amber_db_edges", "Distinct directed vertex pairs with at least one predicate.",
		dbF(func(st amber.Stats) float64 { return float64(st.Edges) }))

	r.GaugeFunc("amber_plan_quality_ratio",
		"Mean est/actual candidate-frontier ratio over traced queries this generation.",
		func() float64 { _, _, mean := s.planQual.Summary(); return mean })
	r.GaugeFunc("amber_plan_quality_samples",
		"Traced queries contributing to amber_plan_quality_ratio.",
		func() float64 { _, n, _ := s.planQual.Summary(); return float64(n) })

	if s.cfg.Replication != nil {
		s.cfg.Replication.RegisterMetrics(r)
	}
	if s.cfg.Follower != nil {
		s.cfg.Follower.RegisterMetrics(r)
	}

	obs.RegisterRuntimeMetrics(r)
}

// finishTrace seals a request trace and fans it out: stage-timing
// histograms, per-shape engine effort counters, the plan-quality
// accumulator, the recent-trace ring, and the slow-query log.
func (s *Server) finishTrace(st *dbState, tr *obs.Trace, status string, rows uint64) {
	tr.Finish(status, rows)
	v := tr.View()
	for _, sp := range v.Spans {
		s.stageHist.With(sp.Name).Observe(sp.Duration.Seconds())
	}
	if v.Shape != "" {
		s.engRecur.With(v.Shape).Add(uint64(v.Engine.Recursions))
		s.engInit.With(v.Shape).Add(uint64(v.Engine.InitCandidates))
		s.engSat.With(v.Shape).Add(uint64(v.Engine.SatProbes))
		s.engEmb.With(v.Shape).Add(v.Engine.Embeddings)
	}
	if ratio, ok := tr.EstActualRatio(); ok {
		s.planQual.Observe(st.db.Generation().Generation, ratio)
	}
	s.traces.Add(tr)
	s.slowLog.Observe(tr)
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck
}

// handleTraces serves the recent-trace ring as JSON, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	views := s.traces.Snapshot()
	if views == nil {
		views = []obs.TraceView{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"traces": views}) //nolint:errcheck
}
