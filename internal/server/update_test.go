package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// post issues a POST with the given content type and body.
func post(t testing.TB, rawURL, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(rawURL, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// postUpdate sends an update via the form-encoded protocol binding.
func postUpdate(t testing.TB, base, update string) (*http.Response, string) {
	t.Helper()
	return post(t, base+"/sparql", "application/x-www-form-urlencoded",
		url.Values{"update": {update}}.Encode())
}

func TestUpdateEndpointForm(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := postUpdate(t, ts.URL,
		`INSERT DATA { <http://town/dave> <http://town/knows> <http://town/alice> . }`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Epoch") == "" || resp.Header.Get("X-Epoch") == "0" {
		t.Errorf("X-Epoch = %q, want advanced epoch", resp.Header.Get("X-Epoch"))
	}
	resp, body = get(t, queryURL(ts.URL, knowsQuery, "format", "csv"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "http://town/dave") {
		t.Errorf("inserted triple not visible:\n%s", body)
	}
}

func TestUpdateEndpointRawBody(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := post(t, ts.URL+"/sparql", "application/sparql-update",
		`DELETE DATA { <http://town/alice> <http://town/knows> <http://town/bob> . }`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update status = %d, body %s", resp.StatusCode, body)
	}
	_, body = get(t, queryURL(ts.URL, knowsQuery, "format", "csv"), nil)
	if strings.Contains(body, "alice,http://town/bob") {
		t.Errorf("deleted triple still visible:\n%s", body)
	}
}

func TestUpdateRejectedOnGET(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, _ := get(t, ts.URL+"/sparql?update="+url.QueryEscape("CLEAR ALL"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET update status = %d, want 400", resp.StatusCode)
	}
}

func TestUpdateParseErrorIs400(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})
	resp, body := postUpdate(t, ts.URL, `INSERT GARBAGE`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, body %s", resp.StatusCode, body)
	}
	if st := s.Stats(); st.UpdateErrors != 1 || st.Updates != 1 {
		t.Errorf("update counters = %d/%d, want 1/1", st.Updates, st.UpdateErrors)
	}
}

// TestInvalidCodePointIs400: a literal escape naming no Unicode scalar
// value is a parse error, answered 400, in a query and in an update.
func TestInvalidCodePointIs400(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := get(t, queryURL(ts.URL, `SELECT ?s WHERE { ?s <http://town/name> "\uDC00" . }`), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query status = %d, body %s", resp.StatusCode, body)
	}
	resp, body = postUpdate(t, ts.URL, `INSERT DATA { <http://town/x> <http://town/name> "\U00110000" . }`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("update status = %d, body %s", resp.StatusCode, body)
	}
}

// TestUpdateInvalidatesResultCache is the satellite regression test:
// query (cached), update, re-query — the second read must not be served
// from the pre-update cache entry.
func TestUpdateInvalidatesResultCache(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	u := queryURL(ts.URL, knowsQuery, "format", "csv")

	// Prime the cache and verify a hit.
	resp, first := get(t, u, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("prime: status=%d cache=%s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, _ = get(t, u, nil)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second read not cached: %s", resp.Header.Get("X-Cache"))
	}

	resp, body := postUpdate(t, ts.URL,
		`INSERT DATA { <http://town/erin> <http://town/knows> <http://town/alice> . }`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update failed: %d %s", resp.StatusCode, body)
	}

	resp, after := get(t, u, nil)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("post-update read served from stale cache (X-Cache=%s)", resp.Header.Get("X-Cache"))
	}
	if !strings.Contains(after, "http://town/erin") {
		t.Errorf("post-update rows stale:\n%s", after)
	}
	if strings.Count(after, "\n") <= strings.Count(first, "\n") {
		t.Errorf("row count did not grow: before\n%s\nafter\n%s", first, after)
	}

	// The new state is itself cacheable again.
	resp, _ = get(t, u, nil)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("new epoch not cached: %s", resp.Header.Get("X-Cache"))
	}
}

func TestStatsGenerationSection(t *testing.T) {
	s, ts := newTestServer(t, townData, Config{})
	if resp, body := postUpdate(t, ts.URL,
		`INSERT DATA { <http://town/x> <http://town/knows> <http://town/y> . } ;
		 DELETE DATA { <http://town/bob> <http://town/knows> <http://town/carol> . }`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var doc struct {
		Updates uint64 `json:"updates"`
		Live    struct {
			Epoch            uint64  `json:"epoch"`
			DeltaAdds        int     `json:"delta_adds"`
			DeltaTombstones  int     `json:"delta_tombstones"`
			Updates          uint64  `json:"updates"`
			UpdatesPerSecond float64 `json:"updates_per_second"`
		} `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, body)
	}
	if doc.Updates != 1 {
		t.Errorf("server updates = %d, want 1", doc.Updates)
	}
	if doc.Live.Epoch == 0 || doc.Live.DeltaAdds != 1 || doc.Live.DeltaTombstones != 1 {
		t.Errorf("generation section = %+v", doc.Live)
	}
	if doc.Live.Updates != 2 || doc.Live.UpdatesPerSecond <= 0 {
		t.Errorf("update counters = %+v", doc.Live)
	}
	_ = s
}

func TestLoadGatedByConfig(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	resp, body := postUpdate(t, ts.URL, `LOAD <file:///etc/hostname>`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "LOAD is disabled") {
		t.Errorf("LOAD without AllowLoad: %d %s", resp.StatusCode, body)
	}
	_, ts2 := newTestServer(t, townData, Config{AllowLoad: true})
	resp, body = postUpdate(t, ts2.URL, `LOAD SILENT <file:///no/such/file.nt>`)
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("LOAD SILENT with AllowLoad: %d %s", resp.StatusCode, body)
	}
}

func TestClearViaEndpoint(t *testing.T) {
	_, ts := newTestServer(t, townData, Config{})
	if resp, body := postUpdate(t, ts.URL, `CLEAR ALL`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("clear: %d %s", resp.StatusCode, body)
	}
	_, body := get(t, queryURL(ts.URL, knowsQuery, "format", "csv"), nil)
	if strings.Contains(body, "http://town") {
		t.Errorf("rows after CLEAR:\n%s", body)
	}
}
