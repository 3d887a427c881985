package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	amber "repro"
)

// TestStatsDurabilitySection: a server over a durable database reports
// its WAL state under /stats "durability"; an in-memory one reports it
// disabled.
func TestStatsDurabilitySection(t *testing.T) {
	db, err := amber.OpenDurable(t.TempDir(), &amber.DurabilityOptions{Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(`INSERT DATA { <http://town/alice> <http://town/knows> <http://town/bob> . }`); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, _ = postUpdate(t, ts.URL,
		`INSERT DATA { <http://town/bob> <http://town/knows> <http://town/carol> . }`)

	resp, body := get(t, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, body)
	}
	d := st.Durability
	if !d.Enabled {
		t.Fatalf("durability disabled in /stats: %+v", d)
	}
	if d.Policy != "always" {
		t.Errorf("policy = %q, want always", d.Policy)
	}
	if d.Appends < 2 || d.LastSeq < 2 {
		t.Errorf("appends=%d last_seq=%d, want >= 2 (pre-serve + HTTP update)", d.Appends, d.LastSeq)
	}
	if d.Fsyncs < 2 {
		t.Errorf("fsyncs=%d, want >= 2 under fsync=always", d.Fsyncs)
	}
	if d.WALBytes <= 0 || d.Segments < 1 {
		t.Errorf("wal_bytes=%d segments=%d", d.WALBytes, d.Segments)
	}

	// In-memory server: section present but disabled.
	_, ts2 := newTestServer(t, townData, Config{})
	_, body = get(t, ts2.URL+"/stats", nil)
	var st2 StatsResponse
	if err := json.Unmarshal([]byte(body), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Durability.Enabled {
		t.Fatalf("in-memory server reports durability enabled: %+v", st2.Durability)
	}
}

// TestUpdateWALClosed503: once the WAL is closed (the reload window), a
// well-formed update must shed with 503 — retryable — not 400.
func TestUpdateWALClosed503(t *testing.T) {
	db, err := amber.OpenDurable(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := postUpdate(t, ts.URL,
		`INSERT DATA { <http://town/a> <http://town/p> <http://town/b> . }`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// Reads keep working against the closed-WAL store.
	resp, _ = get(t, ts.URL+"/sparql?format=csv&query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Chttp%3A%2F%2Ftown%2Fp%3E%20%3Fo%20.%20%7D", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after WAL close: status %d", resp.StatusCode)
	}
}

// TestWritePathStatsAgreeWithMetrics: after updates on a durable store,
// /stats "write_path" and the /metrics commit and overlay series read the
// same counters.
func TestWritePathStatsAgreeWithMetrics(t *testing.T) {
	db, err := amber.OpenDurable(t.TempDir(), &amber.DurabilityOptions{Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(New(db, Config{}))
	defer ts.Close()
	for i := 0; i < 4; i++ {
		resp, body := postUpdate(t, ts.URL, fmt.Sprintf(
			`INSERT DATA { <http://town/p%d> <http://town/knows> <http://town/p%d> . }`, i, i+1))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("update %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if resp, body := postUpdate(t, ts.URL,
		`DELETE DATA { <http://town/p0> <http://town/knows> <http://town/p1> . }`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, body)
	}

	_, body := get(t, ts.URL+"/stats", nil)
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, body)
	}
	_, body = get(t, ts.URL+"/metrics", nil)
	m := parsePrometheus(t, body)
	wp := st.WritePath
	if wp.Batches != 5 || wp.OverlayEntriesCopied == 0 || wp.OverlayVersions == 0 {
		t.Fatalf("write_path = %+v, want 5 batches and a non-empty overlay", wp)
	}
	for name, want := range map[string]uint64{
		"amber_commit_batches_total":         wp.Batches,
		"amber_overlay_copied_entries_total": wp.OverlayEntriesCopied,
		"amber_overlay_versions":             wp.OverlayVersions,
	} {
		if got, ok := m[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /stats write_path says %d", name, got, ok, want)
		}
	}
}
