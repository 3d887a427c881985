package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	amber "repro"
	"repro/internal/datagen"
)

// benchServer builds a Server over a deterministic LUBM-style graph.
func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	triples := datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7, Compact: true})
	var sb strings.Builder
	for _, t := range triples {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	db, err := amber.OpenString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return New(db, cfg)
}

const benchQuery = `SELECT ?x ?y WHERE { ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?y . }`

func benchRequest(query string) *http.Request {
	v := url.Values{"query": {query}, "format": {"json"}}
	return httptest.NewRequest(http.MethodGet, "/sparql?"+v.Encode(), nil)
}

// BenchmarkServerCached measures the full handler path for a repeat
// query served from the result cache.
func BenchmarkServerCached(b *testing.B) {
	s := benchServer(b, Config{})
	warm := httptest.NewRecorder()
	s.ServeHTTP(warm, benchRequest(benchQuery))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup: %d %s", warm.Code, warm.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, benchRequest(benchQuery))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

// BenchmarkServerUncached measures the handler path with result caching
// disabled: every request goes through admission, a re-parse and
// query-multigraph build, and a full engine execution plus streaming
// serialization.
func BenchmarkServerUncached(b *testing.B) {
	s := benchServer(b, Config{CacheSize: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, benchRequest(benchQuery))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}
