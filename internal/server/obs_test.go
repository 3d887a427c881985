package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// parsePrometheus parses text exposition format into value-by-series,
// failing the test on any line that doesn't scan.
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsEndpointFormat(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	get(t, queryURL(ts.URL, knowsQuery), nil)

	resp, body := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	m := parsePrometheus(t, body)
	for _, name := range []string{
		"amber_queries_total", "amber_db_triples", "amber_epoch",
		"amber_in_flight", "go_goroutines",
		"amber_query_duration_seconds_count", "amber_query_duration_seconds_sum",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if m["amber_queries_total"] != 1 || m["amber_db_triples"] != 7 {
		t.Errorf("queries=%v triples=%v, want 1 and 7",
			m["amber_queries_total"], m["amber_db_triples"])
	}
	// Every HELP line has a TYPE line and vice versa.
	if h, ty := strings.Count(body, "# HELP"), strings.Count(body, "# TYPE"); h != ty || h == 0 {
		t.Errorf("HELP lines %d != TYPE lines %d", h, ty)
	}
}

func TestMetricsAgreeWithStatsUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch i % 3 {
				case 0: // repeat query: cache hits after the first
					get(t, queryURL(ts.URL, knowsQuery), nil)
				case 1: // distinct query per worker: misses
					q := fmt.Sprintf(`SELECT ?x%d WHERE { ?x%d <http://town/livesIn> ?t . }`, g, g)
					get(t, queryURL(ts.URL, q), nil)
				case 2: // parse error
					get(t, queryURL(ts.URL, "SELEKT nonsense"), nil)
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	_, body := get(t, ts.URL+"/metrics", nil)
	m := parsePrometheus(t, body)

	for name, want := range map[string]uint64{
		"amber_queries_total":            st.Queries,
		"amber_query_cache_hits_total":   st.CacheHits,
		"amber_query_cache_misses_total": st.CacheMisses,
		"amber_parse_errors_total":       st.ParseErrors,
		"amber_timeouts_total":           st.Timeouts,
	} {
		if got := m[name]; got != float64(want) {
			t.Errorf("%s = %v, /stats says %d", name, got, want)
		}
	}
	if m["amber_parse_errors_total"] == 0 || m["amber_query_cache_hits_total"] == 0 {
		t.Error("load generated no parse errors or no cache hits; test is vacuous")
	}
}

func TestMetricsBucketsMonotonic(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	for i := 0; i < 5; i++ {
		get(t, queryURL(ts.URL, knowsQuery, "limit", strconv.Itoa(i+1)), nil)
	}
	_, body := get(t, ts.URL+"/metrics", nil)
	m := parsePrometheus(t, body)

	type bkt struct {
		le float64
		n  float64
	}
	var buckets []bkt
	var inf float64
	for series, v := range m {
		if !strings.HasPrefix(series, `amber_query_duration_seconds_bucket{le="`) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, `amber_query_duration_seconds_bucket{le="`), `"}`)
		if le == "+Inf" {
			inf = v
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		}
		buckets = append(buckets, bkt{f, v})
	}
	if len(buckets) == 0 {
		t.Fatal("no finite buckets found")
	}
	for i := 1; i < len(buckets); i++ {
		for j := 0; j < i; j++ { // unsorted map iteration: compare all pairs
			lo, hi := buckets[j], buckets[i]
			if lo.le > hi.le {
				lo, hi = hi, lo
			}
			if lo.n > hi.n {
				t.Errorf("bucket le=%v count %v > le=%v count %v (not cumulative)",
					lo.le, lo.n, hi.le, hi.n)
			}
		}
	}
	if count := m["amber_query_duration_seconds_count"]; inf != count || count != 5 {
		t.Errorf("+Inf bucket %v, _count %v, want both 5", inf, count)
	}
}

// TestStatsPercentilesFromHistograms: /stats always carries p50_ms and
// p99_ms, interpolated from the same histogram /metrics exposes.
func TestStatsPercentilesFromHistograms(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})
	get(t, queryURL(ts.URL, knowsQuery), nil)

	_, body := get(t, ts.URL+"/stats", nil)
	for _, key := range []string{`"p50_ms"`, `"p99_ms"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/stats lacks %s", key)
		}
	}
	if st := s.Stats(); st.Queries != 1 || st.P50Millis <= 0 || st.P99Millis < st.P50Millis {
		t.Errorf("stats percentiles: %+v", st)
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if n := parsePrometheus(t, metrics)["amber_query_duration_seconds_count"]; n != 1 {
		t.Errorf("amber_query_duration_seconds_count = %v, want 1", n)
	}
}

func TestRequestIDOnResponsesAndErrors(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})

	// Success carries the ID as a header.
	resp, _ := get(t, queryURL(ts.URL, knowsQuery), nil)
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("success response missing X-Request-Id")
	}

	// Errors carry the same ID in header and JSON body.
	resp, body := get(t, queryURL(ts.URL, "SELEKT nonsense"), nil)
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("error response missing X-Request-Id")
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, body)
	}
	if e.RequestID != id {
		t.Errorf("body request_id %q != header %q", e.RequestID, id)
	}
}

// syncBuffer is an io.Writer safe for the handler goroutine to write
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLogCarriesRequestID(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, townData, Config{SlowQuery: time.Nanosecond, SlowQueryOut: &buf})

	resp, _ := get(t, queryURL(ts.URL, knowsQuery), nil)
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("missing X-Request-Id")
	}

	// finishTrace runs before the handler returns, but give the goroutine
	// a moment in case the response flushed first.
	deadline := time.Now().Add(5 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		if s := buf.String(); strings.Contains(s, "\n") {
			line = s[:strings.IndexByte(s, '\n')]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line == "" {
		t.Fatal("slow-query log empty")
	}
	var rec obs.TraceView
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow log line not JSON: %v\n%s", err, line)
	}
	if rec.ID != id {
		t.Errorf("slow log id %q != response X-Request-Id %q", rec.ID, id)
	}
	if rec.Status != "ok" || !strings.Contains(rec.Query, "knows") {
		t.Errorf("slow log record: %+v", rec)
	}
	if rec.Shape == "" || rec.PlanSummary == "" {
		t.Errorf("slow log record missing plan info: shape=%q plan=%q", rec.Shape, rec.PlanSummary)
	}
	var names []string
	for _, sp := range rec.Spans {
		names = append(names, sp.Name)
	}
	for _, want := range []string{"parse_plan", "execute", "serialize"} {
		if !strings.Contains(strings.Join(names, ","), want) {
			t.Errorf("slow log spans %v missing %q", names, want)
		}
	}
}

func TestDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	get(t, queryURL(ts.URL, knowsQuery), nil)
	get(t, queryURL(ts.URL, knowsQuery), nil) // cache hit: also traced

	resp, body := get(t, ts.URL+"/debug/traces", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(out.Traces))
	}
	// Newest first: the second request was the cache hit.
	if out.Traces[0].Status != "hit" || out.Traces[1].Status != "ok" {
		t.Errorf("trace order/status: [0]=%s [1]=%s, want hit then ok",
			out.Traces[0].Status, out.Traces[1].Status)
	}
	for _, tr := range out.Traces {
		if tr.ID == "" || tr.DurationMS < 0 {
			t.Errorf("malformed trace %+v", tr)
		}
	}
}

func TestExplainAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})

	u := ts.URL + "/sparql?explain=analyze&query=" + url.QueryEscape(knowsQuery)
	resp, body := get(t, u, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"planner: cost", "core[0]", "est=", "actual=", "visits=", "engine:", "rows: 3"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain=analyze missing %q:\n%s", want, body)
		}
	}

	// British spelling is accepted too.
	u = ts.URL + "/sparql?explain=analyse&query=" + url.QueryEscape(knowsQuery)
	if resp, _ := get(t, u, nil); resp.StatusCode != 200 {
		t.Errorf("explain=analyse status %d", resp.StatusCode)
	}

	// A malformed query under analyze maps to 400 like plain explain.
	u = ts.URL + "/sparql?explain=analyze&query=" + url.QueryEscape("SELEKT nonsense")
	if resp, _ := get(t, u, nil); resp.StatusCode != 400 {
		t.Errorf("malformed analyze status %d, want 400", resp.StatusCode)
	}
}
