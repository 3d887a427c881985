package server

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

// reply is one HTTP exchange, collected without touching testing.T so it
// can be produced on a helper goroutine.
type reply struct {
	status     int
	retryAfter string
	body       string
	err        error
}

func exchange(req *http.Request, err error) reply {
	if err != nil {
		return reply{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: string(b), err: err}
}

// waitIdle waits for the handler goroutines to release their slots and
// registry entries (both happen just after the response is written).
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().InFlight != 0 || s.inflight.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot/registry still held: inFlight=%d registry=%d", s.Stats().InFlight, s.inflight.Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGovernedExecutionPerKind drives every request kind that executes —
// SELECT, ASK, explain=analyze and update — through the one governed
// path and asserts they are shed, timed out, killed and resource-limited
// with identical statuses, counters and /debug/queries behaviour.
func TestGovernedExecutionPerKind(t *testing.T) {
	const (
		patterns   = `?a <http://p/t> ?b . ?b <http://p/t> ?c . ?c <http://p/t> ?d . FILTER (?d = <http://v/nomatch>)`
		askText    = `ASK { ` + patterns + ` }`
		updateText = `INSERT DATA { <http://v/new> <http://p/t> <http://v/0> . }`
		predicate  = "http://p/t" // occurs in every kind's text: the hold marker
	)
	query := func(text string, fixed ...string) func(base string, extra ...string) reply {
		return func(base string, extra ...string) reply {
			return exchange(http.NewRequest(http.MethodGet, queryURL(base, text, append(fixed, extra...)...), nil))
		}
	}
	kinds := []struct {
		name     string
		registry string // kind listed by /debug/queries
		// bounded kinds carry an execution bound and drive the engine, so
		// the timeout and the visit guard apply; an update has neither and
		// must simply succeed under both.
		bounded bool
		send    func(base string, extra ...string) reply
	}{
		{"select", "query", true, query(slowQueryText)},
		{"ask", "query", true, query(askText)},
		{"explain-analyze", "explain", true, query(slowQueryText, "explain", "analyze")},
		{"update", "update", false, func(base string, extra ...string) reply {
			v := url.Values{}
			for i := 0; i+1 < len(extra); i += 2 {
				v.Set(extra[i], extra[i+1])
			}
			req, err := http.NewRequest(http.MethodPost, base+"/sparql?"+v.Encode(), strings.NewReader(updateText))
			if err == nil {
				req.Header.Set("Content-Type", "application/sparql-update")
			}
			return exchange(req, err)
		}},
	}
	data := slowSearchData(200, 30)
	awaitStart := func(t *testing.T, started chan string) {
		t.Helper()
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("held request did not start")
		}
	}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			t.Run("saturation", func(t *testing.T) {
				s, ts := newTestServer(t, data, Config{MaxConcurrent: 1, QueueWait: -1})
				started, release := holdQueries(t, "?hold")
				holder := make(chan reply, 1)
				go func() { holder <- query(`SELECT ?hold WHERE { ?hold <http://p/t> ?x . } LIMIT 1`)(ts.URL) }()
				awaitStart(t, started)

				r := k.send(ts.URL)
				if r.err != nil || r.status != http.StatusServiceUnavailable || r.retryAfter == "" {
					t.Errorf("saturated: %+v, want 503 with Retry-After", r)
				}
				if st := s.Stats(); st.Rejected != 1 || st.InFlight != 1 {
					t.Errorf("rejected=%d in_flight=%d, want 1 and 1", st.Rejected, st.InFlight)
				}
				// A shed request never registers.
				if qs := debugQueries(t, ts.URL); len(qs) != 1 || !strings.Contains(qs[0].Query, "?hold") {
					t.Errorf("/debug/queries while saturated = %+v", qs)
				}
				release()
				if r := <-holder; r.err != nil || r.status != http.StatusOK {
					t.Errorf("holder finished with %+v", r)
				}
				waitIdle(t, s)
			})

			t.Run("timeout", func(t *testing.T) {
				s, ts := newTestServer(t, data, Config{})
				r := k.send(ts.URL, "timeout", "1ns")
				wantStatus, wantTimeouts := http.StatusNoContent, uint64(0)
				if k.bounded {
					wantStatus, wantTimeouts = http.StatusServiceUnavailable, 1
					if r.retryAfter == "" || !strings.Contains(r.body, "timed out") {
						t.Errorf("timeout reply = %+v", r)
					}
				}
				if r.err != nil || r.status != wantStatus {
					t.Errorf("status %d (%v), want %d: %s", r.status, r.err, wantStatus, r.body)
				}
				if got := s.Stats().Timeouts; got != wantTimeouts {
					t.Errorf("timeouts = %d, want %d", got, wantTimeouts)
				}
				waitIdle(t, s)
			})

			t.Run("admin-cancel", func(t *testing.T) {
				s, ts := newTestServer(t, data, Config{AdminToken: "sesame"})
				started, release := holdQueries(t, predicate)
				held := make(chan reply, 1)
				go func() { held <- k.send(ts.URL, "timeout", "30s") }()
				awaitStart(t, started)

				qs := debugQueries(t, ts.URL)
				if len(qs) != 1 || qs[0].Kind != k.registry || qs[0].ID == "" {
					t.Fatalf("/debug/queries = %+v, want one %q entry", qs, k.registry)
				}
				if resp, body := postCancel(t, ts.URL, qs[0].ID, "sesame"); resp.StatusCode != http.StatusOK {
					t.Fatalf("cancel status %d: %s", resp.StatusCode, body)
				}
				release()
				r := <-held
				if r.err != nil || r.status != http.StatusInternalServerError || !strings.Contains(r.body, "administrator") {
					t.Errorf("killed request got %+v, want 500 mentioning administrator", r)
				}
				waitIdle(t, s)
				if st := s.Stats(); st.CancelledAdmin != 1 || st.Cancelled != 0 || st.Live.Updates != 0 {
					t.Errorf("cancelled_admin=%d cancelled=%d applied updates=%d, want 1/0/0",
						st.CancelledAdmin, st.Cancelled, st.Live.Updates)
				}
				if qs := debugQueries(t, ts.URL); len(qs) != 0 {
					t.Errorf("/debug/queries after kill = %+v", qs)
				}
			})

			t.Run("visit-guard", func(t *testing.T) {
				if testing.Short() {
					t.Skip("slow search fixture")
				}
				s, ts := newTestServer(t, data, Config{MaxQueryVisits: 10_000})
				r := k.send(ts.URL, "timeout", "30s")
				wantStatus, wantLimited := http.StatusNoContent, uint64(0)
				if k.bounded {
					wantStatus, wantLimited = http.StatusUnprocessableEntity, 1
					if !strings.Contains(r.body, "resource limit") {
						t.Errorf("guard reply = %+v", r)
					}
				}
				if r.err != nil || r.status != wantStatus {
					t.Errorf("status %d (%v), want %d: %s", r.status, r.err, wantStatus, r.body)
				}
				if got := s.Stats().ResourceLimited; got != wantLimited {
					t.Errorf("resource_limited = %d, want %d", got, wantLimited)
				}
				waitIdle(t, s)
			})
		})
	}
}
