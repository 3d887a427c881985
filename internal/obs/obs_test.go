package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Exact bucket counts: le=1 → 1, le=2 → 2, le=4 → 1, +Inf → 1.
	wantCounts := []uint64{1, 2, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	// Median rank 2.5 lands in the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %v, want within (1,2]", q)
	}
	// p99 lands in +Inf, clamped to the last finite bound.
	if q := h.Quantile(0.99); q != 4 {
		t.Errorf("p99 = %v, want 4 (clamped)", q)
	}
	if q := NewHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramObserveOnBoundary(t *testing.T) {
	// le is inclusive: an observation exactly at a bound belongs to it.
	h := NewHistogram([]float64{1, 2})
	h.Observe(1)
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("boundary observation landed in bucket %v, want le=1", h.counts)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("amber_test_total", "A test counter.")
	c.Add(7)
	r.GaugeFunc("amber_test_gauge", "A func gauge.", func() float64 { return 2.5 })
	h := r.Histogram("amber_test_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.CounterVec("amber_test_by_shape_total", "A labeled counter.", "shape")
	v.With("star").Add(3)
	v.With(`we"ird`).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP amber_test_total A test counter.",
		"# TYPE amber_test_total counter",
		"amber_test_total 7",
		"amber_test_gauge 2.5",
		`amber_test_seconds_bucket{le="0.1"} 1`,
		`amber_test_seconds_bucket{le="1"} 2`,
		`amber_test_seconds_bucket{le="+Inf"} 3`,
		"amber_test_seconds_sum 5.55",
		"amber_test_seconds_count 3",
		`amber_test_by_shape_total{shape="star"} 3`,
		`amber_test_by_shape_total{shape="we\"ird"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Every non-comment line is "name{labels} value" with a parseable value.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := parseFloat(line[i+1:]); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}

func parseFloat(s string) (float64, error) {
	var f float64
	err := json.Unmarshal([]byte(s), &f)
	return f, err
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup", "")
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-9 {
		t.Fatalf("sum = %v, want 8.0", h.Sum())
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := NewTrace(strings.Repeat("x", 2*MaxTraceQuery))
	if len(tr.Query) != MaxTraceQuery {
		t.Fatalf("query not truncated: %d bytes", len(tr.Query))
	}
	if tr.ID == "" {
		t.Fatal("empty request ID")
	}
	done := tr.Span("parse_plan")
	time.Sleep(time.Millisecond)
	done()
	tr.SetPlan("cost", "star", "1 component", 3)
	tr.AddEngine(EngineCounters{InitCandidates: 10, Recursions: 5, SatProbes: 2, Embeddings: 4})
	tr.AddEngine(EngineCounters{Recursions: 1})
	tr.AddLevels([]Level{{Branch: 0, Component: 0, Pos: 0, Var: "x", Est: 12, Candidates: 10, Visits: 1}})
	tr.Finish("ok", 4)
	tr.Finish("error", 0) // second Finish ignored

	v := tr.View()
	if v.Status != "ok" || v.Rows != 4 || v.Shape != "star" || v.Epoch != 3 {
		t.Fatalf("view = %+v", v)
	}
	if v.Engine.Recursions != 6 || v.Engine.InitCandidates != 10 {
		t.Fatalf("engine = %+v", v.Engine)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != "parse_plan" || v.Spans[0].Duration <= 0 {
		t.Fatalf("spans = %+v", v.Spans)
	}
	ratio, ok := tr.EstActualRatio()
	if !ok {
		t.Fatal("EstActualRatio not ok")
	}
	if want := 13.0 / 11.0; math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("ratio = %v, want %v", ratio, want)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Span("x")()
	tr.AddSpan("y", time.Second)
	tr.SetPlan("", "", "", 0)
	tr.AddEngine(EngineCounters{})
	tr.AddLevels([]Level{{}})
	tr.Finish("ok", 0)
	if _, ok := tr.EstActualRatio(); ok {
		t.Fatal("nil trace should have no ratio")
	}
	if tr.Duration() != 0 || tr.Shape() != "" || len(tr.Levels()) != 0 {
		t.Fatal("nil trace accessors should be zero")
	}
}

func TestContextCarry(t *testing.T) {
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("q")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	for _, id := range []string{"a", "b", "c"} {
		r.Add(NewTraceID(id, "q"))
	}
	got := r.Snapshot()
	if len(got) != 2 || got[0].ID != "c" || got[1].ID != "b" {
		t.Fatalf("snapshot = %+v", got)
	}
	var nilRing *TraceRing
	nilRing.Add(NewTrace("q"))
	if nilRing.Snapshot() != nil {
		t.Fatal("nil ring should snapshot nil")
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, 10*time.Millisecond)
	fast := NewTraceID("fast-1", "quick")
	fast.Finish("ok", 1)
	sl.Observe(fast)
	slow := NewTraceID("slow-1", "sluggish")
	slow.Time = slow.Time.Add(-time.Second) // backdate so duration exceeds threshold
	slow.Finish("ok", 2)
	sl.Observe(slow)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d slow-log lines, want 1: %q", len(lines), buf.String())
	}
	var rec TraceView
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-log line is not JSON: %v", err)
	}
	if rec.ID != "slow-1" || rec.Query != "sluggish" {
		t.Fatalf("record = %+v", rec)
	}
	if NewSlowLog(nil, time.Second).Enabled() {
		t.Fatal("nil-writer slow log should be disabled")
	}
	var disabled *SlowLog
	disabled.Observe(slow) // must not panic
}

func TestPlanQuality(t *testing.T) {
	var pq PlanQuality
	pq.Observe(1, 2.0)
	pq.Observe(1, 4.0)
	gen, n, mean := pq.Summary()
	if gen != 1 || n != 2 || mean != 3.0 {
		t.Fatalf("summary = (%d, %d, %v), want (1, 2, 3)", gen, n, mean)
	}
	pq.Observe(2, 10.0) // generation change resets the window
	gen, n, mean = pq.Summary()
	if gen != 2 || n != 1 || mean != 10.0 {
		t.Fatalf("after reset = (%d, %d, %v), want (2, 1, 10)", gen, n, mean)
	}
	var nilPQ *PlanQuality
	nilPQ.Observe(1, 1)
	if _, n, _ := nilPQ.Summary(); n != 0 {
		t.Fatal("nil PlanQuality should be empty")
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in runtime metrics:\n%s", want, out)
		}
	}
	rs := ReadRuntimeStats()
	if rs.Goroutines < 1 || rs.HeapAlloc == 0 {
		t.Fatalf("implausible runtime stats: %+v", rs)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("request IDs not unique: %q %q", a, b)
	}
}
