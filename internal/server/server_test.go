package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	amber "repro"
)

const townData = `
@prefix g: <http://town/> .
g:alice g:knows g:bob .
g:alice g:knows g:carol .
g:bob   g:knows g:carol .
g:alice g:livesIn g:springfield .
g:bob   g:livesIn g:springfield .
g:carol g:livesIn g:shelbyville .
g:springfield g:hasName "Springfield" .
`

const knowsQuery = `SELECT ?a ?b WHERE { ?a <http://town/knows> ?b . }`

func openDB(t testing.TB, data string) *amber.DB {
	t.Helper()
	db, err := amber.OpenString(data)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer starts a real HTTP server around a Server built on data.
func newTestServer(t testing.TB, data string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(openDB(t, data), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t testing.TB, rawURL string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func queryURL(base, query string, extra ...string) string {
	v := url.Values{"query": {query}}
	for i := 0; i+1 < len(extra); i += 2 {
		v.Set(extra[i], extra[i+1])
	}
	return base + "/sparql?" + v.Encode()
}

func TestAllResultFormats(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	cases := []struct {
		accept, wantCT, wantFrag string
	}{
		{"application/sparql-results+json", "application/sparql-results+json", `"type":"uri","value":"http://town/bob"`},
		{"application/sparql-results+xml", "application/sparql-results+xml", `<uri>http://town/bob</uri>`},
		{"text/csv", "text/csv", "http://town/alice,http://town/bob"},
		{"text/tab-separated-values", "text/tab-separated-values", "<http://town/alice>\t<http://town/bob>"},
	}
	for _, c := range cases {
		resp, body := get(t, queryURL(ts.URL, knowsQuery), http.Header{"Accept": {c.accept}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %s: status %d: %s", c.accept, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.wantCT) {
			t.Errorf("Accept %s: Content-Type %q", c.accept, ct)
		}
		if !strings.Contains(body, c.wantFrag) {
			t.Errorf("Accept %s: body missing %q:\n%s", c.accept, c.wantFrag, body)
		}
		// All three ?knows edges appear regardless of format.
		if n := strings.Count(body, "carol"); n < 2 {
			t.Errorf("Accept %s: want 2 carol rows, got %d:\n%s", c.accept, n, body)
		}
	}
}

func TestFormatParamOverridesAccept(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := get(t, queryURL(ts.URL, knowsQuery, "format", "csv"),
		http.Header{"Accept": {"application/sparql-results+json"}})
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
}

func TestContentNegotiationQValues(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, _ := get(t, queryURL(ts.URL, knowsQuery),
		http.Header{"Accept": {"text/html, application/sparql-results+xml;q=0.9, */*;q=0.1"}})
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/sparql-results+xml") {
		t.Errorf("q-value negotiation picked %q, want XML", ct)
	}
	resp, _ = get(t, queryURL(ts.URL, knowsQuery), http.Header{"Accept": {"image/png"}})
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("unsupported Accept: status %d, want 406", resp.StatusCode)
	}
}

func TestPostForms(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})

	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {knowsQuery}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "bob") {
		t.Fatalf("form POST: status %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(knowsQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "bob") {
		t.Fatalf("sparql-query POST: status %d: %s", resp.StatusCode, body)
	}

	// application/sparql-update is accepted since the live-update
	// subsystem; malformed update text maps to 400.
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-update", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad update: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/sparql", "text/plain", strings.NewReader(knowsQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("unsupported media type: status %d, want 415", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/sparql", strings.NewReader(knowsQuery))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT: status %d, want 405", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	for name, u := range map[string]string{
		"missing query":  ts.URL + "/sparql",
		"syntax error":   queryURL(ts.URL, "SELECT WHERE {"),
		"bad limit":      queryURL(ts.URL, knowsQuery, "limit", "x"),
		"bad timeout":    queryURL(ts.URL, knowsQuery, "timeout", "soon"),
		"unknown format": queryURL(ts.URL, knowsQuery, "format", "yaml"),
	} {
		resp, body := get(t, u, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", name, body)
		}
	}
	resp, _ := get(t, ts.URL+"/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

func TestLimitParam(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := get(t, queryURL(ts.URL, knowsQuery, "limit", "1", "format", "csv"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 { // header + 1 row
		t.Errorf("limit=1 returned %d lines:\n%s", len(lines), body)
	}
}

func TestCacheHitMiss(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})

	resp, body1 := get(t, queryURL(ts.URL, knowsQuery), nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	resp, body2 := get(t, queryURL(ts.URL, knowsQuery), nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if body1 != body2 {
		t.Errorf("cached body differs:\n%s\nvs\n%s", body1, body2)
	}

	// The same query reformatted with insignificant whitespace still hits.
	spaced := "SELECT  ?a   ?b\nWHERE {\n  ?a <http://town/knows> ?b .\n}"
	resp, _ = get(t, queryURL(ts.URL, spaced), nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("reformatted query X-Cache = %q, want hit", got)
	}

	// A different limit is a different result: miss.
	resp, _ = get(t, queryURL(ts.URL, knowsQuery, "limit", "1"), nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different limit X-Cache = %q, want miss", got)
	}

	// A different format of a cached result is still a hit (rows are
	// cached format-independently).
	resp, _ = get(t, queryURL(ts.URL, knowsQuery, "format", "tsv"), nil)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("other format X-Cache = %q, want hit", got)
	}

	st := s.Stats()
	if st.CacheHits < 2 || st.CacheMisses < 2 {
		t.Errorf("stats: hits=%d misses=%d, want ≥2 each", st.CacheHits, st.CacheMisses)
	}
	// Distinct limits produce distinct result-cache entries; plans are
	// never cached, so plan_cache_entries stays 0.
	if st.ResultCacheEntries < 2 || st.PlanCacheEntries != 0 {
		t.Errorf("stats: result entries=%d plan entries=%d, want ≥2 and 0", st.ResultCacheEntries, st.PlanCacheEntries)
	}
}

// TestResultOverRowCapStreamsUncached checks that a result one row over
// maxCacheRows reaches the client in full on every request and is never
// cached.
func TestResultOverRowCapStreamsUncached(t *testing.T) {
	var data strings.Builder
	for i := 0; i <= maxCacheRows; i++ {
		fmt.Fprintf(&data, "<http://r/s%d> <http://r/p> <http://r/o> .\n", i)
	}
	s, ts := newTestServer(t, data.String(), Config{})
	const q = `SELECT ?s WHERE { ?s <http://r/p> <http://r/o> . }`
	before := s.Stats().ResultCacheEntries
	for _, attempt := range []string{"first", "second"} {
		resp, body := get(t, queryURL(ts.URL, q, "format", "csv"), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s request: status %d", attempt, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s request X-Cache = %q, want miss", attempt, got)
		}
		seen := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSpace(body), "\n")[1:] {
			seen[strings.TrimSpace(line)] = true
		}
		for i := 0; i <= maxCacheRows; i++ {
			if row := fmt.Sprintf("http://r/s%d", i); !seen[row] {
				t.Fatalf("%s request: row %s missing from %d distinct rows", attempt, row, len(seen))
			}
		}
		if len(seen) != maxCacheRows+1 {
			t.Errorf("%s request: %d distinct rows, want %d", attempt, len(seen), maxCacheRows+1)
		}
	}
	if after := s.Stats().ResultCacheEntries; after != before {
		t.Errorf("result_cache_entries %d → %d, want unchanged", before, after)
	}
}

// TestOversizedTextIs413 sends query and update text one byte over the
// length limit and at 2 MiB, in every binding that carries a body; each
// must answer 413.
func TestOversizedTextIs413(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	for _, n := range []int{maxQueryLength + 1, 2 << 20} {
		text := strings.Repeat("a", n)
		for name, req := range map[string]struct{ contentType, body string }{
			"form query":  {"application/x-www-form-urlencoded", "query=" + text},
			"form update": {"application/x-www-form-urlencoded", "update=" + text},
			"raw query":   {"application/sparql-query", text},
			"raw update":  {"application/sparql-update", text},
		} {
			resp, body := post(t, ts.URL+"/sparql", req.contentType, req.body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "query exceeds") {
				t.Errorf("%s of %d bytes: status %d, want 413: %s", name, n, resp.StatusCode, body)
			}
		}
	}
}

func TestTimeoutZeroKeepsDefault(t *testing.T) {
	s := New(openDB(t, townData), Config{DefaultTimeout: 7 * time.Second})
	req := httptest.NewRequest(http.MethodGet, "/sparql?timeout=0", nil)
	p, err := s.readParams(req)
	if err != nil {
		t.Fatal(err)
	}
	// timeout=0 must not disable the deadline: a query would hold an
	// execution slot forever.
	if p.opts.Timeout != 7*time.Second {
		t.Errorf("timeout=0 yields %v, want the 7s default", p.opts.Timeout)
	}

	// A negative timeout is a malformed request (400), not a query that
	// timed out (503) — and the verdict must not depend on whether the
	// result is already cached.
	s, ts := newTestServer(t, townData, Config{})
	for _, cache := range []string{"cold", "warm"} {
		if cache == "warm" {
			if resp, body := get(t, queryURL(ts.URL, knowsQuery), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("warming query: status %d: %s", resp.StatusCode, body)
			}
		}
		for _, v := range []string{"-1s", "-100"} {
			for _, extra := range [][]string{nil, {"explain", "analyze"}} {
				resp, body := get(t, queryURL(ts.URL, knowsQuery, append([]string{"timeout", v}, extra...)...), nil)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "invalid timeout") {
					t.Errorf("%s cache, timeout=%s %v: status %d, want 400 invalid timeout: %s",
						cache, v, extra, resp.StatusCode, body)
				}
			}
		}
	}
	if st := s.Stats(); st.Timeouts != 0 {
		t.Errorf("timeouts counter = %d after rejected requests, want 0", st.Timeouts)
	}
}

// TestTimeoutCap checks that a client-requested timeout is capped at
// maxTimeout, or at DefaultTimeout when that is larger, so no client gets
// less time than one that sends no timeout at all.
func TestTimeoutCap(t *testing.T) {
	for _, c := range []struct {
		def   time.Duration
		param string
		want  time.Duration
	}{
		{10 * time.Minute, "8m", 8 * time.Minute},
		{10 * time.Minute, "1h", 10 * time.Minute},
		{0, "1h", 5 * time.Minute},
	} {
		s := New(openDB(t, townData), Config{DefaultTimeout: c.def})
		p, err := s.readParams(httptest.NewRequest(http.MethodGet, "/sparql?timeout="+c.param, nil))
		if err != nil {
			t.Fatal(err)
		}
		if p.opts.Timeout != c.want {
			t.Errorf("DefaultTimeout %v, timeout=%s: got %v, want %v", c.def, c.param, p.opts.Timeout, c.want)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{CacheSize: -1})
	get(t, queryURL(ts.URL, knowsQuery), nil)
	resp, _ := get(t, queryURL(ts.URL, knowsQuery), nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q with caching disabled, want miss", got)
	}
}

func TestTimeoutMapsTo503(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})
	// A one-nanosecond timeout has expired by the time the engine checks
	// it: the engine reports timeout before producing any row.
	resp, body := get(t, queryURL(ts.URL, knowsQuery, "timeout", "1ns"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("error body = %s", body)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts counter = %d, want 1", st.Timeouts)
	}
}

// TestMidRunTimeoutMapsTo503: a timeout that expires while the engine
// searches — a context deadline firing between two polls, not one already
// past at the first — is answered 503 "query timed out" as well.
func TestMidRunTimeoutMapsTo503(t *testing.T) {
	s, ts := newTestServer(t, slowSearchData(200, 30), Config{})
	start := time.Now()
	resp, body := get(t, queryURL(ts.URL, slowQueryText, "timeout", "50ms"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "query timed out after 50ms") {
		t.Fatalf("status %d body %q, want 503 query timed out after 50ms", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout far overshot: %s", elapsed)
	}
	if st := s.Stats(); st.Timeouts != 1 || st.Cancelled != 0 {
		t.Errorf("timeouts=%d cancelled=%d, want 1/0", st.Timeouts, st.Cancelled)
	}
}

// holdQueries installs a test hook that blocks any query whose text
// contains marker until the returned release function is called. started
// receives one value per blocked query.
func holdQueries(t *testing.T, marker string) (started chan string, release func()) {
	t.Helper()
	started = make(chan string, 16)
	releasec := make(chan struct{})
	testHookExecute = func(q string) {
		if strings.Contains(q, marker) {
			started <- q
			<-releasec
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(releasec) }) }
	t.Cleanup(func() {
		release()
		testHookExecute = nil
	})
	return started, release
}

func TestConcurrencyCapSheds503(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{MaxConcurrent: 2, QueueWait: -1})
	started, release := holdQueries(t, "?hold")

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ?hold%d WHERE { ?hold%d <http://town/knows> ?x . }`, i, i)
			resp, _ := get(t, queryURL(ts.URL, q), nil)
			codes <- resp.StatusCode
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked queries did not start")
		}
	}

	// Both slots are held: a third query must be shed.
	resp, body := get(t, queryURL(ts.URL, knowsQuery), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if st := s.Stats(); st.Rejected != 1 || st.InFlight != 2 {
		t.Errorf("stats: rejected=%d in_flight=%d, want 1 and 2", st.Rejected, st.InFlight)
	}

	release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("held query finished with %d, want 200", code)
		}
	}

	// Capacity is free again.
	resp, _ = get(t, queryURL(ts.URL, knowsQuery, "limit", "2"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d, want 200", resp.StatusCode)
	}
}

func TestHotSwapKeepsInFlightQueries(t *testing.T) {
	const dataV2 = `
@prefix g: <http://town/> .
g:alice g:knows g:dave .
`
	s, ts := newTestServer(t, townData, Config{})
	started, release := holdQueries(t, "?hold")

	// Warm the cache on generation 0 so we can verify it rolls over.
	get(t, queryURL(ts.URL, knowsQuery), nil)

	holdQ := `SELECT ?hold WHERE { ?hold <http://town/knows> ?x . }`
	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := get(t, queryURL(ts.URL, holdQ, "format", "csv"), nil)
		inflight <- result{resp.StatusCode, body}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query did not start")
	}

	// Swap while the query is executing against generation 0.
	if gen := s.Swap(openDB(t, dataV2)); gen != 1 {
		t.Fatalf("Swap generation = %d, want 1", gen)
	}
	release()

	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight query dropped by swap: status %d: %s", r.code, r.body)
	}
	// The in-flight query answered from the pre-swap database.
	if !strings.Contains(r.body, "bob") || strings.Contains(r.body, "dave") {
		t.Errorf("in-flight query saw post-swap data:\n%s", r.body)
	}

	// New requests see the new data, and the old cache is gone.
	resp, body := get(t, queryURL(ts.URL, knowsQuery, "format", "csv"), nil)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("post-swap X-Cache = %q, want miss (cache rolled over)", got)
	}
	if !strings.Contains(body, "dave") || strings.Contains(body, "bob") {
		t.Errorf("post-swap query answered from old data:\n%s", body)
	}
	if st := s.Stats(); st.Generation != 1 || st.DB.Triples != 1 {
		t.Errorf("stats: generation=%d triples=%d, want 1 and 1", st.Generation, st.DB.Triples)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}

	get(t, queryURL(ts.URL, knowsQuery), nil)
	resp, body = get(t, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	if st.Queries != 1 || st.DB.Triples != 7 {
		t.Errorf("stats = %+v", st)
	}
	if st.P50Millis < 0 || st.P99Millis < st.P50Millis {
		t.Errorf("percentiles: p50=%v p99=%v", st.P50Millis, st.P99Millis)
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  ?x\n WHERE\t{ }", "SELECT ?x WHERE { }"},
		{`FILTER(?n = "a  b")`, `FILTER(?n = "a  b")`},
		{"  SELECT ?x  ", "SELECT ?x"},
		{"<http://x/a b> ?y", "<http://x/a b> ?y"},
		{`"esc\" quote  x"  ?z`, `"esc\" quote  x" ?z`},
	}
	for _, c := range cases {
		if got := normalizeQuery(c.in); got != c.want {
			t.Errorf("normalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExplainParameter(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})

	u := ts.URL + "/sparql?explain=1&query=" + url.QueryEscape(knowsQuery)
	resp, body := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"planner: cost", "est=", "actual="} {
		if !strings.Contains(body, want) {
			t.Errorf("explain body missing %q:\n%s", want, body)
		}
	}

	// Explicit planner selection.
	u = ts.URL + "/sparql?explain=1&planner=heuristic&query=" + url.QueryEscape(knowsQuery)
	if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "planner: heuristic") {
		t.Errorf("heuristic explain: status=%d body:\n%s", resp.StatusCode, body)
	}

	// Unknown planner and malformed query map to 400.
	u = ts.URL + "/sparql?explain=1&planner=nonsense&query=" + url.QueryEscape(knowsQuery)
	if resp, _ := get(t, u, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown planner status = %d, want 400", resp.StatusCode)
	}
	u = ts.URL + "/sparql?explain=1&query=" + url.QueryEscape("SELEKT nonsense")
	if resp, _ := get(t, u, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed explain status = %d, want 400", resp.StatusCode)
	}
	// Invalid explain value.
	u = ts.URL + "/sparql?explain=maybe&query=" + url.QueryEscape(knowsQuery)
	if resp, _ := get(t, u, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid explain value status = %d, want 400", resp.StatusCode)
	}
}
