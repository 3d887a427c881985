package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the single source of the names; BENCHMARK.json repeats them (the
// smoke test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports on an untraced run.
// README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"load_triples_per_s", "1/s"},
	{"snapshot_open_s", "s"},
	{"bytes_per_triple", "B"},
	{"live_heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"rows_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics every workload reports on a traced run. A
// layer a workload never enters reports 0.
var perLayer = []metricDef{
	{"sparql.parse_s", "s"},
	{"sparql.parse_calls", "count"},
	{"sparql.parse_update_s", "s"},
	{"query.build_s", "s"},
	{"plan.plan_s", "s"},
	{"plan.est_actual_ratio", "ratio"},
	{"engine.match_s", "s"},
	{"engine.init_candidates", "count"},
	{"engine.recursions", "count"},
	{"engine.sat_probes", "count"},
	{"engine.embeddings", "count"},
	{"engine.rows_per_recursion", "ratio"},
	{"engine.overlay_probes", "count"},
	{"index.neighbors_ns", "ns"},
	{"index.signature_candidates_ns", "ns"},
	{"index.build_s", "s"},
	{"index.bytes", "B"},
	{"results.write_s", "s"},
	{"results.bytes", "B"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.plan_cache_entries", "count"},
	{"server.shed", "count"},
	{"server.overhead_s", "s"},
	{"server.gen_late_ms", "ms"},
	{"server.max_rate_ok", "1/s"},
	{"server.rate1_p99_ms", "ms"},
	{"server.rate2_p99_ms", "ms"},
	{"server.rate3_p99_ms", "ms"},
	{"server.rate4_p99_ms", "ms"},
	{"server.rate5_p99_ms", "ms"},
	{"server.failed_frac", "ratio"},
	{"server.query_p99_ms", "ms"},
	{"server.op_p95_ms", "ms"},
	{"server.op_p99_ms", "ms"},
	{"server.reader_p50_ms", "ms"},
	{"server.reader_p95_ms", "ms"},
	{"server.reader_per_s", "1/s"},
	{"delta.apply_s", "s"},
	{"delta.batches", "count"},
	{"wal.append_s", "s"},
	{"wal.sync_s", "s"},
	{"wal.fsyncs", "count"},
	{"wal.bytes", "B"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.replay_s", "s"},
	{"wal.fsync_probe_ms", "ms"},
	{"core.mutate_s", "s"},
	{"core.commit_groups", "count"},
	{"core.mean_group_size", "ratio"},
	{"core.flat_out_per_s", "1/s"},
	{"core.compactions", "count"},
	{"core.compaction_s", "s"},
	{"core.checkpoints", "count"},
	{"core.reopen_s", "s"},
	{"rdf.decode_s", "s"},
	{"rdf.triples", "count"},
	{"rdf.bytes", "B"},
	{"multigraph.build_s", "s"},
	{"multigraph.vertices", "count"},
	{"multigraph.edges", "count"},
	{"multigraph.encode_s", "s"},
	{"multigraph.decode_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// latencies summarises one request stream's latency samples, in ms.
type latencies struct {
	ms []float64
}

func (l *latencies) add(ms float64)    { l.ms = append(l.ms, ms) }
func (l *latencies) merge(o latencies) { l.ms = append(l.ms, o.ms...) }
func (l *latencies) n() int            { return len(l.ms) }
func (l *latencies) median() float64   { return l.quantile(0.5) }

// tail returns the stream's tail latency and which quantile that is.
func (l *latencies) tail() (float64, float64) {
	q := tailQuantile(len(l.ms), 0.95)
	return l.quantile(q), q
}

// p99 is the far tail, reported per layer only: on a fixed pool it sits
// in a gap between two heavy queries and jumps between them run to run.
func (l *latencies) p99() float64 { return l.quantile(tailQuantile(len(l.ms), 0.99)) }

// quantile returns the q-quantile by nearest rank; 0 for an empty stream.
func (l *latencies) quantile(q float64) float64 {
	if len(l.ms) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(l.ms) {
		sort.Float64s(l.ms)
	}
	i := int(math.Ceil(q*float64(len(l.ms)))) - 1
	return l.ms[max(0, min(i, len(l.ms)-1))]
}

// tailQuantile is the highest quantile, up to want, that still has ten
// samples beyond it; short streams report a lower tail.
func tailQuantile(n int, want float64) float64 {
	return math.Max(0.5, math.Min(want, 1-10/float64(max(n, 1))))
}

// median of a small set of repeated measurements (set-up cycles).
func median(v []float64) float64 {
	l := latencies{ms: append([]float64(nil), v...)}
	if len(v)%2 == 1 {
		return l.median()
	}
	return (l.quantile(0.5) + l.quantile(0.5+1/float64(len(v)))) / 2
}
