package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// typedData covers every term shape the SPARQL results formats
// distinguish: an IRI object, a typed literal, a language-tagged
// literal, and a plain literal.
const typedData = `
<http://x/a> <http://p/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/a> <http://p/greet> "hi"@en .
<http://x/a> <http://p/knows> <http://x/b> .
<http://x/b> <http://p/name> "Bea" .
`

// TestTypedJSONResults is the acceptance test for the typed-term result
// model: a store containing "42"^^xsd:integer, "hi"@en and an IRI must
// serialize with correct type/datatype/xml:lang, and a variable unbound
// in a UNION branch must be absent from the binding object rather than
// an empty-string literal.
func TestTypedJSONResults(t *testing.T) {
	_, ts := newTestServer(t, typedData, Config{})
	q := `SELECT ?s ?v ?w WHERE {
		{ ?s <http://p/age> ?v } UNION { ?s <http://p/greet> ?v } UNION { ?s <http://p/knows> ?w }
	}`
	resp, body := get(t, queryURL(ts.URL, q), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
				Lang     string `json:"xml:lang"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("bindings = %d, want 3:\n%s", len(doc.Results.Bindings), body)
	}
	var sawTyped, sawLang, sawIRI, sawUnbound bool
	for _, b := range doc.Results.Bindings {
		if v, ok := b["v"]; ok {
			switch {
			case v.Datatype == "http://www.w3.org/2001/XMLSchema#integer":
				sawTyped = v.Type == "literal" && v.Value == "42" && v.Lang == ""
			case v.Lang == "en":
				sawLang = v.Type == "literal" && v.Value == "hi" && v.Datatype == ""
			case v.Value == "":
				t.Errorf("empty-string binding for ?v must not appear: %+v", v)
			}
		}
		if w, ok := b["w"]; ok {
			if w.Type != "uri" || w.Value != "http://x/b" {
				t.Errorf("IRI binding = %+v", w)
			}
			sawIRI = true
			if _, vPresent := b["v"]; vPresent {
				t.Errorf("?v bound in the knows branch: %+v", b)
			}
			sawUnbound = true
		}
	}
	if !sawTyped || !sawLang || !sawIRI || !sawUnbound {
		t.Errorf("coverage: typed=%v lang=%v iri=%v unbound=%v\n%s",
			sawTyped, sawLang, sawIRI, sawUnbound, body)
	}
}

// TestCacheHitBodyMatchesMiss: a result served from the cache is
// byte-identical to the streamed response that filled it, in every
// format, across a typed literal, a language-tagged literal and a
// variable a UNION branch leaves unbound. The cache key ignores the
// format, so each format gets a fresh server to observe its own miss.
func TestCacheHitBodyMatchesMiss(t *testing.T) {
	q := `SELECT ?s ?v ?w WHERE {
		{ ?s <http://p/age> ?v } UNION { ?s <http://p/greet> ?v } UNION { ?s <http://p/knows> ?w }
	}`
	for _, format := range []string{"json", "xml", "csv", "tsv"} {
		_, ts := newTestServer(t, typedData, Config{})
		u := queryURL(ts.URL, q, "format", format)
		var bodies [2]string
		for i, want := range []string{"miss", "hit"} {
			resp, body := get(t, u, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", format, want, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cache"); got != want {
				t.Fatalf("%s: X-Cache = %q, want %q", format, got, want)
			}
			bodies[i] = body
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: cache hit differs from miss.\nmiss:\n%s\nhit:\n%s", format, bodies[0], bodies[1])
		}
		if !strings.Contains(bodies[0], "42") || !strings.Contains(bodies[0], "hi") {
			t.Errorf("%s: body lacks the literals:\n%s", format, bodies[0])
		}
	}
}

func TestAskOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, typedData, Config{})
	resp, body := get(t, queryURL(ts.URL, `ASK { ?s <http://p/greet> "hi"@en }`), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if strings.TrimSpace(body) != `{"head":{},"boolean":true}` {
		t.Errorf("boolean body = %q", body)
	}
	// Second request hits the result cache.
	resp, body = get(t, queryURL(ts.URL, `ASK { ?s <http://p/greet> "hi"@en }`), nil)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("second ASK not cached (X-Cache=%q)", resp.Header.Get("X-Cache"))
	}
	if strings.TrimSpace(body) != `{"head":{},"boolean":true}` {
		t.Errorf("cached boolean body = %q", body)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
	// Negative answer, XML form.
	resp, body = get(t, queryURL(ts.URL, `ASK { ?s <http://p/greet> "hi" }`, "format", "xml"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xml ask status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "<boolean>false</boolean>") {
		t.Errorf("xml boolean body = %q", body)
	}
}

// slowSearchData builds a graph whose 3-hop chain query explores tens of
// millions of recursion branches while yielding no solution rows: every
// vertex has out-degree deg over edge type t, and the final pattern uses
// a predicate that exists but never completes a chain, so the engine
// searches for a long time in silence. Used to verify cancellation.
func slowSearchData(n, deg int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		for j := 1; j <= deg; j++ {
			fmt.Fprintf(&sb, "<http://v/%d> <http://p/t> <http://v/%d> .\n", i, (i*7+j*13)%n)
		}
	}
	return sb.String()
}

// TestCancelledRequestReleasesSlot is the regression test for the
// admission-control bug: before context plumbing, a client that went
// away left its execution slot (and a would-be cache entry) held for the
// full query timeout. Now the engine observes r.Context() and aborts
// promptly.
func TestCancelledRequestReleasesSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("slow search fixture")
	}
	s, ts := newTestServer(t, slowSearchData(400, 40), Config{MaxConcurrent: 1})

	// The chain enumerates tens of millions of embeddings; the FILTER
	// rejects every one of them after enumeration (it cannot prune the
	// search), so the request produces no output while the engine works.
	q := `SELECT ?d WHERE {
		?a <http://p/t> ?b . ?b <http://p/t> ?c . ?c <http://p/t> ?d .
		FILTER (?d = <http://v/nomatch>)
	}`
	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, queryURL(ts.URL, q, "timeout", "30s"), nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()

	// Wait until the query holds the only execution slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	cancel() // client goes away
	<-done

	// The slot must free long before the 30s timeout would.
	for s.Stats().InFlight != 0 {
		if time.Since(start) > 3*time.Second {
			t.Fatalf("slot still held %v after client cancellation", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", st.Cancelled)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts counter = %d, want 0", st.Timeouts)
	}
	if st.ResultCacheEntries != 0 {
		t.Errorf("abandoned run wrote %d cache entries", st.ResultCacheEntries)
	}

	// The freed slot accepts new work immediately.
	resp, body := get(t, queryURL(ts.URL, `SELECT ?x WHERE { <http://v/1> <http://p/t> ?x }`), nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("follow-up status %d: %s", resp.StatusCode, body)
	}
}
