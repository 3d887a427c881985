package server

import (
	"compress/gzip"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// SetReady flips the /readyz verdict. cmd/amber-serve drops readiness
// around SIGHUP reloads so a load balancer drains the instance while the
// replacement snapshot loads; liveness (/healthz) is unaffected.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// handleReadyz is the readiness probe: 503 while a reload or replay is
// in progress, 200 otherwise. Liveness (/healthz) stays unconditionally
// 200 — a draining server is still alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "loading\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// handleDebugQueries serves the in-flight registry as JSON, oldest
// first: every request currently holding an execution slot, with its
// age, live resource counters, and plan-level progress.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	views := s.inflight.Snapshot()
	if views == nil {
		views = []obs.InflightView{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"queries": views, "count": len(views)}) //nolint:errcheck
}

// cancelInflight delivers an admin cancellation to one in-flight
// request. The query's context is cancelled with obs.ErrAdminCancelled:
// the engine aborts at its next poll, the handler's error path frees the
// admission slot, and the client receives an error response.
func (s *Server) cancelInflight(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.inflight.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no in-flight request %q", id), "")
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{"cancelled": id}) //nolint:errcheck
}

// adminAuthorized checks the public listener's token gate: an exact
// match of Config.AdminToken in X-Admin-Token or a bearer Authorization
// header. With no token configured the public surface is always denied
// (the private AdminHandler listener is the alternative).
func (s *Server) adminAuthorized(r *http.Request) bool {
	tok := s.cfg.AdminToken
	if tok == "" {
		return false
	}
	h := r.Header.Get("X-Admin-Token")
	if h == "" {
		h = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(h), []byte(tok)) == 1
}

// handleAdminCancel is the token-gated cancel endpoint on the public
// listener.
func (s *Server) handleAdminCancel(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(r) {
		if s.cfg.AdminToken == "" {
			writeError(w, http.StatusForbidden,
				"admin cancellation disabled on this listener; set -admin-token or use -admin-addr", "")
		} else {
			writeError(w, http.StatusUnauthorized, "missing or invalid admin token", "")
		}
		return
	}
	s.cancelInflight(w, r)
}

// AdminHandler returns the governance surface without the token gate,
// for binding to a private -admin-addr listener: the in-flight registry,
// unauthenticated cancel, and the health and readiness probes.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.HandleFunc("POST /admin/queries/{id}/cancel", s.cancelInflight)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// withGzip compresses the wrapped handler's response when the client
// advertises gzip support. Used for /metrics and /stats, whose text
// payloads are multi-KB of highly repetitive content.
func withGzip(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			h(w, r)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		defer gz.Close() //nolint:errcheck
		h(gzipResponseWriter{ResponseWriter: w, gz: gz}, r)
	}
}

// gzipResponseWriter routes the body through the gzip stream while
// headers and status go to the underlying writer.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g gzipResponseWriter) Write(p []byte) (int, error) { return g.gz.Write(p) }
