// Package server exposes an AMbER database over HTTP, speaking the
// SPARQL 1.1 Protocol: query via GET (?query=), POST form-encoded, or
// POST with an application/sparql-query body; updates via POST with an
// update= form field or an application/sparql-update body; results are
// serialized in the format negotiated from the Accept header (see
// internal/results).
//
// The server is built for sustained concurrent traffic:
//
//   - a bounded LRU cache of materialized results, keyed on normalized
//     query text plus result-shaping options plus the database epoch (so
//     a live update can never serve stale rows), serves repeat queries
//     without touching the engine; a miss parses, plans and matches
//     afresh, as the paper's online stage does once per query;
//   - ?explain=1 (optionally with planner=cost|heuristic) returns the
//     query's matching plan — estimated vs. actual candidate
//     cardinalities per core vertex — instead of executing it;
//   - a semaphore caps concurrent engine executions, shedding load with
//     503 + Retry-After once the cap and queue wait are exhausted;
//   - per-query timeouts map to 503, malformed queries to 400;
//   - Swap atomically replaces the underlying database for zero-downtime
//     snapshot reload — in-flight queries finish against the database
//     they started on, and the result cache rolls over with the swap.
//
// Endpoints: the SPARQL endpoint at "/" and "/sparql", liveness at
// "/healthz", readiness at "/readyz", live serving counters plus
// database statistics at "/stats", the in-flight query table at
// "/debug/queries", and token-gated admin cancellation at
// "/admin/queries/{id}/cancel" (see also AdminHandler for the ungated
// private-listener variant).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/results"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// CacheSize bounds the result cache, in entries. Default 256;
	// negative disables result caching.
	CacheSize int
	// MaxConcurrent caps concurrent engine executions. Default
	// 2×GOMAXPROCS.
	MaxConcurrent int
	// QueueWait is how long a request may wait for an execution slot
	// before being shed with 503. Default 100ms; negative means no wait
	// (immediate shed when saturated).
	QueueWait time.Duration
	// DefaultTimeout bounds each query's execution when the request
	// carries no timeout parameter. Default 60s (the paper's constraint).
	// Client-requested timeouts are capped at 5m, or at DefaultTimeout
	// when that is larger.
	DefaultTimeout time.Duration
	// AllowLoad permits LOAD operations in update requests. Off by
	// default: LOAD reads local files, which an unauthenticated client
	// must not be able to do.
	AllowLoad bool
	// SlowQuery enables the slow-query log: every query whose total
	// handling time meets this threshold is written as one JSON line
	// (request ID, truncated query text, plan summary, stage timings,
	// engine counters, epoch) to SlowQueryOut. Zero disables it.
	SlowQuery time.Duration
	// SlowQueryOut receives slow-query records. Defaults to os.Stderr
	// when SlowQuery is set.
	SlowQueryOut io.Writer
	// AdminToken, when set, enables POST /admin/queries/{id}/cancel on
	// the public listener for requests carrying the token (X-Admin-Token
	// or bearer Authorization header). Without it the public cancel
	// surface is disabled; AdminHandler on a private -admin-addr listener
	// is the ungated alternative.
	AdminToken string
	// MaxQueryVisits caps the vertices a single query's match loop may
	// visit. A query whose resource meter crosses the cap is cancelled
	// and answered with 422. Zero means unlimited.
	MaxQueryVisits uint64
	// Replication, when set, makes this server a replication primary: its
	// /repl/ endpoints are mounted, its follower registry joins /stats,
	// and its amber_repl_* series join /metrics.
	Replication ReplPrimary
	// Follower, when set, puts the server in read-only follower mode:
	// updates answer 421 Misdirected Request with the primary's endpoint
	// in Location, reads stamp X-Epoch with the follower's applied epoch,
	// and X-Min-Epoch requests wait (at most 2s) for the follower to
	// catch up before answering.
	Follower ReplFollower
}

// Fixed serving limits.
const (
	// maxCacheRows caps how many rows a single cached result may hold;
	// larger results are served streaming and never cached.
	maxCacheRows = 10000
	// maxQueryLength bounds accepted query and update text, in bytes.
	maxQueryLength = 1 << 20
	// maxTimeout caps client-requested timeouts, unless
	// Config.DefaultTimeout is larger: no client gets less than the default.
	maxTimeout = 5 * time.Minute
	// minEpochWait bounds how long an X-Min-Epoch read on a follower waits
	// for the requested epoch before answering 503.
	minEpochWait = 2 * time.Second
	// traceBuffer is how many recent request traces /debug/traces keeps.
	traceBuffer = 128
)

// ReplPrimary is the replication-primary surface the server mounts; see
// internal/repl.Primary. Defined as an interface so the server package
// does not depend on the replication implementation.
type ReplPrimary interface {
	Handler() http.Handler
	StatsSection() map[string]any
	RegisterMetrics(*obs.Registry)
}

// ReplFollower is the follower surface a read-only serving layer needs;
// see internal/repl.Follower.
type ReplFollower interface {
	PrimaryURL() string
	AppliedEpoch() uint64
	WaitEpoch(ctx context.Context, epoch uint64, timeout time.Duration) bool
	StatsSection() map[string]any
	RegisterMetrics(*obs.Registry)
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	} else if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.SlowQuery > 0 && c.SlowQueryOut == nil {
		c.SlowQueryOut = os.Stderr
	}
	return c
}

// cachedResult is one materialized result set: the typed rows of a
// SELECT, or the boolean verdict of an ASK.
type cachedResult struct {
	vars    []string
	rows    []map[string]amber.Term
	isBool  bool
	boolVal bool
}

// dbState bundles a database generation with its result cache. Swapping
// the database swaps the whole state, so cached results can never outlive
// the dictionaries they were built against, and in-flight requests keep a
// consistent view.
type dbState struct {
	db      *amber.DB
	gen     uint64
	results *lruCache[*cachedResult]
}

func newDBState(db *amber.DB, cfg Config, gen uint64) *dbState {
	return &dbState{
		db:      db,
		gen:     gen,
		results: newLRU[*cachedResult](cfg.CacheSize),
	}
}

// testHookExecute, when non-nil, is invoked with the raw query text
// after admission control and plan preparation, immediately before
// engine execution. Tests use it to hold queries in flight.
var testHookExecute func(query string)

// Server is the SPARQL-protocol HTTP handler. Construct with New; safe
// for concurrent use.
type Server struct {
	cfg   Config
	state atomic.Pointer[dbState]
	gen   atomic.Uint64
	sem   chan struct{}
	met   metrics
	start time.Time
	mux   *http.ServeMux
	ready atomic.Bool

	// inflight is the live query-governance table: every admitted
	// query/update registers with its resource meter, GET /debug/queries
	// lists it, and POST /admin/queries/{id}/cancel reaches its context.
	inflight *obs.Inflight

	// Observability (see internal/obs): the Prometheus registry behind
	// /metrics, the recent-trace ring behind /debug/traces, the slow-query
	// log, and the per-generation planner-accuracy accumulator.
	reg        *obs.Registry
	queryHist  *obs.Histogram
	updateHist *obs.Histogram
	stageHist  *obs.HistogramVec
	engRecur   *obs.CounterVec
	engInit    *obs.CounterVec
	engSat     *obs.CounterVec
	engEmb     *obs.CounterVec
	traces     *obs.TraceRing
	slowLog    *obs.SlowLog
	planQual   obs.PlanQuality
}

// New builds a Server serving db with the given configuration.
func New(db *amber.DB, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.state.Store(newDBState(db, s.cfg, 0))
	s.traces = obs.NewTraceRing(traceBuffer)
	s.slowLog = obs.NewSlowLog(s.cfg.SlowQueryOut, s.cfg.SlowQuery)
	s.inflight = obs.NewInflight()
	s.ready.Store(true)
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sparql", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", withGzip(s.handleStats))
	s.mux.HandleFunc("/metrics", withGzip(s.handleMetrics))
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("POST /admin/queries/{id}/cancel", s.handleAdminCancel)
	if s.cfg.Replication != nil {
		s.mux.Handle("/repl/", s.cfg.Replication.Handler())
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		s.handleQuery(w, r)
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// DB returns the currently served database.
func (s *Server) DB() *amber.DB { return s.state.Load().db }

// Swap atomically replaces the served database and rolls the result
// cache over to the new generation. In-flight queries finish against the
// database they started on. It returns the new generation number.
func (s *Server) Swap(db *amber.DB) uint64 {
	gen := s.gen.Add(1)
	s.state.Store(newDBState(db, s.cfg, gen))
	return gen
}

// httpError is a request-processing failure with a protocol status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errTooLarge answers query or update text over maxQueryLength, whichever
// way the request carried it.
var errTooLarge = errorf(http.StatusRequestEntityTooLarge, "query exceeds %d bytes", maxQueryLength)

// writeError emits a JSON error body carrying the request ID (also
// echoed in the X-Request-Id header), so a client-side error report can
// be matched against the slow-query log and /debug/traces. Call only
// before any result bytes have been written. reqID may be empty.
func writeError(w http.ResponseWriter, status int, msg, reqID string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	body := map[string]any{"error": msg, "status": status}
	if reqID != "" {
		body["request_id"] = reqID
	}
	json.NewEncoder(w).Encode(body) //nolint:errcheck
}

// readQuery extracts the SPARQL query or update text per the SPARQL 1.1
// Protocol. isUpdate reports an update request (update= form field or an
// application/sparql-update body); the protocol forbids updates via GET.
func (s *Server) readQuery(r *http.Request) (text string, isUpdate bool, err error) {
	switch r.Method {
	case http.MethodGet:
		if r.URL.Query().Get("update") != "" {
			return "", true, errorf(http.StatusBadRequest, "updates require POST")
		}
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", false, errorf(http.StatusBadRequest, "missing query parameter")
		}
		return q, false, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ct)
		if ct != "" && err != nil {
			return "", false, errorf(http.StatusBadRequest, "malformed Content-Type: %v", err)
		}
		switch mt {
		case "", "application/x-www-form-urlencoded":
			r.Body = http.MaxBytesReader(nil, r.Body, maxQueryLength+4096)
			if err := r.ParseForm(); err != nil {
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					return "", false, errTooLarge
				}
				return "", false, errorf(http.StatusBadRequest, "malformed form body: %v", err)
			}
			if u := r.PostForm.Get("update"); u != "" {
				return u, true, nil
			}
			q := r.PostForm.Get("query")
			if q == "" {
				return "", false, errorf(http.StatusBadRequest, "missing query or update form field")
			}
			return q, false, nil
		case "application/sparql-query", "application/sparql-update":
			body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryLength+1))
			if err != nil {
				return "", false, errorf(http.StatusBadRequest, "reading body: %v", err)
			}
			if len(body) == 0 {
				return "", false, errorf(http.StatusBadRequest, "empty request body")
			}
			return string(body), mt == "application/sparql-update", nil
		default:
			return "", false, errorf(http.StatusUnsupportedMediaType, "unsupported Content-Type %q", mt)
		}
	default:
		return "", false, errorf(http.StatusMethodNotAllowed, "method %s not allowed; use GET or POST", r.Method)
	}
}

// queryParams are the per-request execution knobs.
type queryParams struct {
	opts    amber.QueryOptions
	format  results.Format
	explain bool // render the plan instead of (or in addition to) executing
	analyze bool // explain=analyze: execute and report actual frontiers
	planner string
}

func (s *Server) readParams(r *http.Request) (queryParams, error) {
	var p queryParams
	p.opts.Timeout = s.cfg.DefaultTimeout

	get := func(name string) string {
		if r.Form != nil { // populated for form POSTs by readQuery
			if v := r.Form.Get(name); v != "" {
				return v
			}
		}
		return r.URL.Query().Get(name)
	}

	if v := get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, errorf(http.StatusBadRequest, "invalid limit %q", v)
		}
		p.opts.Limit = n
	}
	if v := get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			var ms int
			ms, err = strconv.Atoi(v)
			d = time.Duration(ms) * time.Millisecond
		}
		if err != nil || d < 0 {
			return p, errorf(http.StatusBadRequest, "invalid timeout %q", v)
		}
		d = min(d, max(maxTimeout, s.cfg.DefaultTimeout))
		if d == 0 {
			// timeout=0 ("no timeout") would let a query hold an execution
			// slot forever; the server always bounds execution.
			d = s.cfg.DefaultTimeout
		}
		p.opts.Timeout = d
	}

	switch v := get("explain"); v {
	case "", "0", "false":
	case "1", "true", "yes", "plan":
		p.explain = true
	case "analyze", "analyse":
		p.explain, p.analyze = true, true
	default:
		return p, errorf(http.StatusBadRequest, "invalid explain %q; use 1, plan, or analyze", v)
	}
	if p.explain {
		p.planner = get("planner")
		if _, ok := plan.ByName(p.planner); !ok {
			return p, errorf(http.StatusBadRequest, "unknown planner %q; use cost or heuristic", p.planner)
		}
	}

	if v := get("format"); v != "" {
		f, ok := results.Lookup(v)
		if !ok {
			return p, errorf(http.StatusBadRequest, "unknown format %q", v)
		}
		p.format = f
		return p, nil
	}
	f, ok := results.Negotiate(r.Header.Get("Accept"))
	if !ok {
		return p, errorf(http.StatusNotAcceptable,
			"no acceptable result format; supported: sparql-results+json, sparql-results+xml, csv, tsv")
	}
	p.format = f
	return p, nil
}

// acquire claims an execution slot, waiting up to QueueWait.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return false
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// countingWriter tracks whether any response bytes reached the client,
// which decides whether an execution error can still become a clean
// HTTP error response. It also feeds the request's resource meter, so
// /debug/queries shows bytes serialized while the response streams.
type countingWriter struct {
	http.ResponseWriter
	meter *obs.ResourceMeter
	n     int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	c.meter.AddBytes(uint64(n))
	return n, err
}

// errClientGone is what a run function returns when writing the response
// failed: the client went away mid-stream and no reply is owed.
var errClientGone = errors.New("client gone")

// execution is the governed scope of one admitted request: what govern
// hands the per-kind run function, and what outcome classifies against.
type execution struct {
	kind    string          // in-flight registry kind: "query", "explain" or "update"
	timeout time.Duration   // the request's execution bound, for the timeout message
	ctx     context.Context // cancellable with cause; carries the trace and pprof labels
	w       *countingWriter // also holds the request's resource meter
	tr      *obs.Trace      // carries the meter into the engine; published for SELECT/ASK
	prep    *amber.Prepared // the resolved plan; nil for explain and update
	rows    uint64          // rows emitted, maintained by run for the trace
}

// govern runs one executable request — a SELECT or ASK ("query"), an
// explain, or an update — through the server's single governance path:
// admission control (503 + Retry-After once the cap and queue wait are
// exhausted), in-flight accounting, the /debug/queries registry entry,
// the resource meter with its -max-query-visits guard, and pprof
// goroutine labels. Execution runs under a cancellable-with-cause
// context derived from the request's: a client disconnect, an admin
// cancel (POST /admin/queries/{id}/cancel) and the visit guard all reach
// the engine through the same ctx.Done() poll, and the cause
// distinguishes them afterwards (see outcome).
//
// prepare, when non-nil, resolves the plan inside the execution slot —
// planning probes the index — and marks the request as a cache-missed
// SELECT/ASK, the only kind whose trace is published. run does the kind's
// work and writes the success response; an error from either is answered
// through outcome, provided no result bytes have been written yet.
func (s *Server) govern(w http.ResponseWriter, r *http.Request, st *dbState, kind, reqID, text string,
	timeout time.Duration, prepare func() (*amber.Prepared, error), run func(*execution) error) {
	if !s.acquire(r.Context()) {
		s.met.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("server saturated (%d executions in flight)", s.cfg.MaxConcurrent), reqID)
		return
	}
	defer func() { <-s.sem }()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	accepted, latency := &s.met.queries, s.queryHist
	switch kind {
	case "explain":
		latency = nil
	case "update":
		accepted, latency = &s.met.updates, s.updateHist
	}
	accepted.Add(1)

	ctx, cancelCause := context.WithCancelCause(r.Context())
	defer cancelCause(nil)
	meter := obs.NewResourceMeter()
	if s.cfg.MaxQueryVisits > 0 {
		meter.SetVisitLimit(s.cfg.MaxQueryVisits, cancelCause)
	}
	// The meter rides the trace into the engine and is readable live
	// through GET /debug/queries.
	tr := obs.NewTraceID(reqID, text)
	tr.SetMeter(meter)
	ex := &execution{
		kind: kind, timeout: timeout, ctx: obs.ContextWithTrace(ctx, tr),
		w: &countingWriter{ResponseWriter: w, meter: meter}, tr: tr,
	}
	finish := func(err error) {
		status, code, msg := s.outcome(ex, err)
		if prepare != nil {
			s.finishTrace(st, tr, status, ex.rows)
		}
		if code != 0 && ex.w.n == 0 {
			writeError(w, code, msg, reqID)
		}
		if err == nil && latency != nil {
			latency.Observe(time.Since(tr.Time).Seconds())
		}
	}

	// pprof goroutine labels: CPU samples of this request's handler carry
	// its request id and shape, so a -debug-addr profile attributes time
	// to specific queries.
	labels := []string{"request_id", reqID}
	var shape func() string
	if prepare != nil {
		s.met.cacheMisses.Add(1)
		endParse := tr.Span("parse_plan")
		prep, err := prepare()
		endParse()
		if err != nil {
			finish(err)
			return
		}
		ex.prep, shape = prep, prep.Shape
		labels = append(labels, "shape", prep.Shape())
	}
	s.inflight.Register(reqID, text, kind, r.RemoteAddr, st.db.Epoch(), meter, shape, cancelCause)
	defer s.inflight.Remove(reqID)
	defer pprof.SetGoroutineLabels(r.Context())
	ex.ctx = pprof.WithLabels(ex.ctx, pprof.Labels(labels...))
	pprof.SetGoroutineLabels(ex.ctx)

	if testHookExecute != nil {
		testHookExecute(text)
	}
	// A request cancelled before it starts never starts: the engine would
	// notice at its first poll, but an update, once applying, runs to
	// completion — a mutation batch cannot be aborted mid-commit.
	err := ex.ctx.Err()
	if err == nil {
		err = run(ex)
	}
	finish(err)
}

// outcome is the one mapping from an execution's result to what the
// client and the operator see: the trace status, and the HTTP error to
// send with its message. A zero code means no response is owed — the
// request succeeded, or the client went away. It bumps the counter
// matching the failure.
func (s *Server) outcome(ex *execution, err error) (status string, code int, msg string) {
	switch {
	case err == nil:
		return "ok", 0, ""
	case errors.Is(err, errClientGone):
		return "client_gone", 0, ""
	case errors.Is(err, amber.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		return "timeout", http.StatusServiceUnavailable, fmt.Sprintf("query timed out after %s", ex.timeout)
	case errors.Is(err, context.Canceled):
		switch cause := context.Cause(ex.ctx); {
		case errors.Is(cause, obs.ErrAdminCancelled):
			s.met.cancelledAdmin.Add(1)
			return "killed", http.StatusInternalServerError, "query cancelled by administrator"
		case errors.Is(cause, obs.ErrResourceLimit):
			s.met.resourceLimited.Add(1)
			return "resource_limit", http.StatusUnprocessableEntity,
				fmt.Sprintf("query exceeded resource limit (%d vertices visited)", s.cfg.MaxQueryVisits)
		default:
			s.met.cancelled.Add(1)
			return "cancelled", 0, ""
		}
	case errors.Is(err, amber.ErrDurability):
		// The request was fine; the write-ahead log failed (disk full,
		// fsync error, or closed mid-reload). 503 tells the client to
		// retry instead of dropping the write as malformed.
		s.met.updateErrors.Add(1)
		return "error", http.StatusServiceUnavailable, "update not durable: " + err.Error()
	case ex.prep == nil:
		// Nothing had validated the text before it ran — an explain, an
		// update, or a SELECT/ASK whose preparation just failed — so the
		// failure is the client's input.
		noun, failed := "query", &s.met.parseErrors
		if ex.kind == "update" {
			noun, failed = "update", &s.met.updateErrors
		}
		failed.Add(1)
		return "parse_error", http.StatusBadRequest, "invalid " + noun + ": " + err.Error()
	default:
		return "error", http.StatusInternalServerError, err.Error()
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := s.state.Load()

	// Every request gets an ID up front, echoed in the X-Request-Id
	// header and any error body, so a client report can be matched to a
	// slow-query record or a /debug/traces entry.
	reqID := obs.NewRequestID()
	w.Header().Set("X-Request-Id", reqID)

	query, isUpdate, err := s.readQuery(r)
	if err == nil && len(query) > maxQueryLength {
		err = errTooLarge
	}
	if err == nil && isUpdate {
		s.handleUpdate(w, r, st, query, reqID)
		return
	}
	var params queryParams
	if err == nil {
		params, err = s.readParams(r)
	}
	// Every read advertises the data version it serves, so a client can
	// observe follower staleness; X-Min-Epoch lets a client that just
	// wrote (and captured the update's X-Epoch) demand at-least-that-fresh
	// reads — read-your-writes across the replication fleet, with a
	// bounded wait on a lagging follower.
	if err == nil {
		st, err = s.gateMinEpoch(r, st)
	}
	if err != nil {
		he := err.(*httpError)
		if he.status == http.StatusMethodNotAllowed {
			w.Header().Set("Allow", "GET, POST")
		}
		writeError(w, he.status, he.msg, reqID)
		return
	}
	w.Header().Set("X-Epoch", strconv.FormatUint(s.servedEpoch(st), 10))

	// Explain renders the matching plan; explain=analyze additionally
	// executes the query and reports actual per-level frontiers. Both run
	// real index work, so they are governed like any query; they skip the
	// result cache (plans are cheap relative to cache bookkeeping and the
	// output embeds live cardinalities).
	if params.explain {
		s.govern(w, r, st, "explain", reqID, query, params.opts.Timeout, nil, func(ex *execution) error {
			var out string
			var err error
			if params.analyze {
				out, err = st.db.ExplainAnalyzeContext(ex.ctx, query, params.planner, &params.opts)
			} else {
				out, err = st.db.ExplainPlanner(query, params.planner)
			}
			if err != nil {
				return err
			}
			ex.w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(ex.w, out) //nolint:errcheck
			return nil
		})
		return
	}

	key := cacheKey(normalizeQuery(query), &params.opts, st.db.Epoch())

	// Cached results are served without touching the engine, so they
	// bypass admission control entirely.
	if cr, ok := st.results.Get(key); ok {
		s.met.queries.Add(1)
		s.met.cacheHits.Add(1)
		tr := obs.NewTraceID(reqID, query)
		w.Header().Set("Content-Type", params.format.ContentType)
		w.Header().Set("X-Cache", "hit")
		var werr error
		if cr.isBool {
			werr = results.WriteBool(params.format, w, cr.boolVal)
		} else {
			werr = results.WriteAll(params.format, w, cr.vars, cr.rows)
		}
		if werr == nil {
			d := time.Since(tr.Time)
			tr.AddSpan("serialize", d)
			s.finishTrace(st, tr, "hit", uint64(len(cr.rows)))
			s.queryHist.Observe(d.Seconds())
		}
		return
	}
	s.govern(w, r, st, "query", reqID, query, params.opts.Timeout,
		func() (*amber.Prepared, error) { return st.db.Prepare(query) },
		func(ex *execution) error { return s.runQuery(ex, st, key, &params) })
}

// runQuery executes a prepared SELECT or ASK inside its governed scope,
// streaming the result in the negotiated format and caching it when it
// is small enough.
func (s *Server) runQuery(ex *execution, st *dbState, key string, params *queryParams) error {
	w, tr, prep := ex.w, ex.tr, ex.prep
	if prep.IsAsk() {
		endExec := tr.Span("execute")
		val, err := prep.AskContext(ex.ctx, &params.opts)
		endExec()
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", params.format.ContentType)
		w.Header().Set("X-Cache", "miss")
		if results.WriteBool(params.format, w, val) != nil {
			return errClientGone
		}
		st.results.Put(key, &cachedResult{isBool: true, boolVal: val})
		return nil
	}

	sw := params.format.New(w)
	w.Header().Set("Content-Type", params.format.ContentType)
	w.Header().Set("X-Cache", "miss")

	// The result header is written lazily — at the first row, or at
	// successful end for empty results — so a query that fails before
	// producing output (timeout, admin cancel, visit guard) can still be
	// answered with a clean HTTP error instead of a truncated 200.
	vars := prep.Projection()
	began := false
	begin := func() error {
		if began {
			return nil
		}
		began = true
		return sw.Begin(vars)
	}
	// collected goes nil once the result outgrows maxCacheRows.
	collected := make([]map[string]amber.Term, 0, 64)
	var writeErr error
	var serialize time.Duration
	loopStart := time.Now()
	var err error
	for b, qerr := range prep.All(ex.ctx, &params.opts) {
		if qerr != nil {
			err = qerr
			break
		}
		m := b.Map()
		if collected != nil {
			if len(collected) < maxCacheRows {
				collected = append(collected, m)
			} else {
				collected = nil
			}
		}
		rowStart := time.Now()
		if writeErr = begin(); writeErr == nil {
			writeErr = sw.Row(m)
		}
		if writeErr != nil {
			break
		}
		serialize += time.Since(rowStart)
		ex.rows++
		w.meter.AddRows(1)
	}
	// The loop interleaves engine work and row writes; attribute the
	// write share to "serialize" and the rest to "execute".
	tr.AddSpan("execute", time.Since(loopStart)-serialize)
	if err == nil && writeErr == nil {
		endStart := time.Now()
		if writeErr = begin(); writeErr == nil {
			writeErr = sw.End()
		}
		serialize += time.Since(endStart)
	}
	tr.AddSpan("serialize", serialize)
	switch {
	case err != nil:
		return err
	case writeErr != nil:
		return errClientGone // mid-stream; nothing useful to do
	}
	if collected != nil {
		st.results.Put(key, &cachedResult{vars: vars, rows: collected})
	}
	return nil
}

// servedEpoch is the data version a read response advertises: the
// follower's applied (primary-comparable) epoch in follower mode, the
// served database's epoch otherwise.
func (s *Server) servedEpoch(st *dbState) uint64 {
	if f := s.cfg.Follower; f != nil {
		return f.AppliedEpoch()
	}
	return st.db.Epoch()
}

// gateMinEpoch enforces the X-Min-Epoch request header: on a follower it
// waits (bounded by minEpochWait) for replication to reach the epoch and
// reloads the served state afterwards — a resync may have swapped the
// database object under us — answering 503 (with Retry-After) when the
// wait expires. A primary is never stale, so it only sanity-checks.
func (s *Server) gateMinEpoch(r *http.Request, st *dbState) (*dbState, error) {
	h := r.Header.Get("X-Min-Epoch")
	if h == "" {
		return st, nil
	}
	min, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return st, errorf(http.StatusBadRequest, "malformed X-Min-Epoch %q", h)
	}
	if f := s.cfg.Follower; f != nil {
		if !f.WaitEpoch(r.Context(), min, minEpochWait) {
			return st, errorf(http.StatusServiceUnavailable,
				"follower at epoch %d has not reached %d within %s",
				f.AppliedEpoch(), min, minEpochWait)
		}
		return s.state.Load(), nil
	}
	if cur := st.db.Epoch(); cur < min {
		return st, errorf(http.StatusServiceUnavailable,
			"server at epoch %d, below requested %d", cur, min)
	}
	return st, nil
}

// handleUpdate executes a SPARQL 1.1 Update request. Updates are
// governed like queries — applying a batch and the compaction it may
// trigger are real work, and GET /debug/queries lists them with their
// age — and respond 204 No Content on success. The database epoch moves
// with the update, so every result-cache entry of the previous state
// becomes unreachable at once.
//
// A follower never applies client updates: its state is defined entirely
// by the primary's WAL, so it answers 421 Misdirected Request pointing
// at the primary's endpoint instead.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, st *dbState, update, reqID string) {
	if f := s.cfg.Follower; f != nil {
		w.Header().Set("Location", f.PrimaryURL()+"/sparql")
		writeError(w, http.StatusMisdirectedRequest,
			"read-only replication follower; send updates to the primary at "+f.PrimaryURL(), reqID)
		return
	}
	s.govern(w, r, st, "update", reqID, update, 0, nil, func(ex *execution) error {
		if err := st.db.UpdateOpts(update, &amber.UpdateOptions{AllowLoad: s.cfg.AllowLoad}); err != nil {
			return err
		}
		ex.w.Header().Set("X-Epoch", strconv.FormatUint(st.db.Epoch(), 10))
		ex.w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// cacheKey builds the result-cache key from the normalized query text
// plus every option that shapes the rows, plus the database epoch — a
// live update bumps the epoch, so stale cached rows become unreachable
// instead of being served. The timeout is deliberately excluded — it
// bounds execution, not the result.
func cacheKey(normalizedQuery string, opts *amber.QueryOptions, epoch uint64) string {
	return normalizedQuery + "\x00limit=" + strconv.Itoa(opts.Limit) +
		"\x00epoch=" + strconv.FormatUint(epoch, 10)
}

// normalizeQuery collapses insignificant whitespace so trivially
// reformatted queries share one cache entry. Whitespace inside string
// literals and IRI references is preserved.
func normalizeQuery(q string) string {
	var sb strings.Builder
	sb.Grow(len(q))
	var quote byte // expected closing delimiter; 0 = outside
	space := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		if quote != 0 {
			sb.WriteByte(c)
			if quote != '>' && c == '\\' && i+1 < len(q) {
				i++
				sb.WriteByte(q[i])
				continue
			}
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			space = true
			continue
		case '"', '\'':
			quote = c
		case '<':
			quote = '>'
		}
		if space && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		space = false
		sb.WriteByte(c)
	}
	return sb.String()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// StatsResponse is the /stats document: live serving counters plus the
// underlying database's statistics.
type StatsResponse struct {
	Uptime string `json:"uptime"`
	// Generation counts hot swaps of the whole database (SIGHUP reload);
	// the live-update state of the served database is under "generation".
	Generation uint64 `json:"swap_generation"`

	Queries      uint64 `json:"queries"`
	Updates      uint64 `json:"updates"`
	UpdateErrors uint64 `json:"update_errors"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Rejected     uint64 `json:"rejected"`
	Timeouts     uint64 `json:"timeouts"`
	Cancelled    uint64 `json:"cancelled"`
	// CancelledAdmin counts queries killed through the admin cancel
	// surface; ResourceLimited those cancelled by the visit guard.
	CancelledAdmin  uint64 `json:"cancelled_admin"`
	ResourceLimited uint64 `json:"resource_limited"`
	ParseErrors     uint64 `json:"parse_errors"`
	InFlight        int64  `json:"in_flight"`

	ResultCacheEntries int `json:"result_cache_entries"`
	// PlanCacheEntries is always 0: the server prepares every cache-missed
	// query afresh. The field stays because /stats clients parse the
	// plan_cache_entries key and the benchmark harness compiles against it.
	PlanCacheEntries int `json:"plan_cache_entries"`

	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`

	// Live describes the served database's update/compaction state.
	Live GenerationSection `json:"generation"`

	// Durability describes the write-ahead log state (enabled=false and
	// zeroes when the server runs without -wal-dir).
	Durability DurabilitySection `json:"durability"`

	// WritePath describes the group-commit and overlay copy-on-write
	// behaviour of the served database's write path.
	WritePath WritePathSection `json:"write_path"`

	// Runtime describes the Go runtime hosting the server.
	Runtime RuntimeSection `json:"runtime"`

	// PlanQuality summarizes planner estimate accuracy on live traffic
	// since the last compaction (see PlanQualitySection).
	PlanQuality PlanQualitySection `json:"plan_quality"`

	// Replication is the primary's follower/ack registry or the
	// follower's lag state (absent when replication is not configured).
	Replication map[string]any `json:"replication,omitempty"`

	DB amber.Stats `json:"db"`
}

// RuntimeSection is the /stats "runtime" document.
type RuntimeSection struct {
	Goroutines    int     `json:"goroutines"`
	HeapBytes     uint64  `json:"heap_bytes"`
	HeapObjects   uint64  `json:"heap_objects"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseTotal  float64 `json:"gc_pause_total_seconds"`
	GCPauseLast   float64 `json:"gc_pause_last_seconds"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// PlanQualitySection is the /stats "plan_quality" document: the mean
// est/actual candidate-frontier ratio over traced queries, windowed per
// database generation (the window resets when a compaction rebuilds the
// base the planner estimates from). A ratio near 1 means the cost-based
// planner's synopsis is tracking the data; drifting far above or below
// 1 flags stale statistics.
type PlanQualitySection struct {
	Generation         uint64  `json:"generation"`
	Samples            uint64  `json:"samples"`
	MeanEstActualRatio float64 `json:"mean_est_actual_ratio"`
}

// DurabilitySection is the /stats "durability" document: the served
// database's write-ahead log state.
type DurabilitySection struct {
	Enabled bool   `json:"enabled"`
	Policy  string `json:"policy,omitempty"`
	// WALBytes and Segments size the live log.
	WALBytes int64 `json:"wal_bytes"`
	Segments int   `json:"segments"`
	// LastSeq is the newest logged record; CheckpointSeq the sequence
	// through which the log has been truncated.
	LastSeq       uint64 `json:"last_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Appends and Fsyncs count log operations since the database opened;
	// Replayed is how many records were replayed at open.
	Appends  uint64 `json:"appends"`
	Fsyncs   uint64 `json:"fsyncs"`
	Replayed int    `json:"replayed"`
	// Checkpoints counts checkpoints; LastCheckpoint is the RFC 3339
	// time of the most recent one (empty if none ran).
	Checkpoints    uint64 `json:"checkpoints"`
	LastCheckpoint string `json:"last_checkpoint,omitempty"`
	// LastCheckpointError is the most recent automatic checkpoint
	// failure, empty when none (or once one succeeds again).
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

// WritePathSection is the /stats "write_path" document: group-commit and
// overlay copy-on-write statistics for the served database.
type WritePathSection struct {
	// Batches counts committed mutation batches; Groups counts commit
	// groups (one WAL append span + one fsync per group under
	// fsync=always). MeanGroupSize is Batches/Groups.
	Batches       uint64  `json:"batches"`
	Groups        uint64  `json:"groups"`
	MeanGroupSize float64 `json:"mean_group_size"`
	MaxGroupSize  uint64  `json:"max_group_size"`
	// GroupSizeBounds and GroupSizeBuckets form the commit-group-size
	// histogram: bucket i counts groups of ≤ bounds[i] batches, the final
	// bucket is the overflow.
	GroupSizeBounds  []uint64 `json:"group_size_bounds"`
	GroupSizeBuckets []uint64 `json:"group_size_buckets"`
	// FsyncsPerBatch is durability.fsyncs / batches — below 1.0 means
	// group commit is amortizing fsyncs (0 when not durable or no writes).
	FsyncsPerBatch float64 `json:"fsyncs_per_batch"`
	// OverlayEntriesCopied / OverlayBytesCopied are the overlay's
	// cumulative copy-on-write effort (O(batch) per commit);
	// OverlayVersions counts the live overlay's retained bucket versions.
	OverlayEntriesCopied uint64 `json:"overlay_entries_copied"`
	OverlayBytesCopied   uint64 `json:"overlay_bytes_copied"`
	OverlayVersions      uint64 `json:"overlay_versions"`
}

// GenerationSection is the /stats "generation" document: the live-update
// state of the served database.
type GenerationSection struct {
	// Epoch is the data version; it moves on every update.
	Epoch uint64 `json:"epoch"`
	// Generation counts base rebuilds (compactions and clears).
	Generation uint64 `json:"generation"`
	// DeltaAdds and DeltaTombstones size the uncompacted overlay.
	DeltaAdds       int `json:"delta_adds"`
	DeltaTombstones int `json:"delta_tombstones"`
	// Updates counts mutation batches applied to this database;
	// UpdatesPerSecond is that same counter averaged over server uptime
	// (it resets with the database on a hot swap), and UpdateP99Millis
	// the p99 update latency over the recent window.
	Updates          uint64  `json:"updates"`
	UpdatesPerSecond float64 `json:"updates_per_second"`
	UpdateP99Millis  float64 `json:"update_p99_ms"`
	// Compactions counts completed compactions; LastCompactionMillis is
	// the duration of the most recent one.
	Compactions          uint64  `json:"compactions"`
	LastCompactionMillis float64 `json:"last_compaction_ms"`
}

// Stats snapshots the serving counters. Latency percentiles are
// interpolated from the bucketed histograms.
func (s *Server) Stats() StatsResponse {
	st := s.state.Load()
	p50 := time.Duration(s.queryHist.Quantile(0.50) * float64(time.Second))
	p99 := time.Duration(s.queryHist.Quantile(0.99) * float64(time.Second))
	up99 := time.Duration(s.updateHist.Quantile(0.99) * float64(time.Second))
	gen := st.db.Generation()
	uptime := time.Since(s.start)
	// Rate derives from the store's applied-batch counter (the same
	// quantity as generation.updates), not the HTTP request counter —
	// rejected updates must not raise the rate.
	ups := 0.0
	if secs := uptime.Seconds(); secs > 0 {
		ups = float64(gen.Updates) / secs
	}
	return StatsResponse{
		Uptime:             uptime.Round(time.Millisecond).String(),
		Generation:         st.gen,
		Queries:            s.met.queries.Load(),
		Updates:            s.met.updates.Load(),
		UpdateErrors:       s.met.updateErrors.Load(),
		CacheHits:          s.met.cacheHits.Load(),
		CacheMisses:        s.met.cacheMisses.Load(),
		Rejected:           s.met.rejected.Load(),
		Timeouts:           s.met.timeouts.Load(),
		Cancelled:          s.met.cancelled.Load(),
		CancelledAdmin:     s.met.cancelledAdmin.Load(),
		ResourceLimited:    s.met.resourceLimited.Load(),
		ParseErrors:        s.met.parseErrors.Load(),
		InFlight:           s.met.inFlight.Load(),
		ResultCacheEntries: st.results.Len(),
		P50Millis:          float64(p50) / float64(time.Millisecond),
		P99Millis:          float64(p99) / float64(time.Millisecond),
		Durability:         durabilitySection(st.db),
		WritePath:          writePathSection(st.db),
		Live: GenerationSection{
			Epoch:                gen.Epoch,
			Generation:           gen.Generation,
			DeltaAdds:            gen.DeltaAdds,
			DeltaTombstones:      gen.DeltaTombstones,
			Updates:              gen.Updates,
			UpdatesPerSecond:     ups,
			UpdateP99Millis:      float64(up99) / float64(time.Millisecond),
			Compactions:          gen.Compactions,
			LastCompactionMillis: float64(gen.LastCompaction) / float64(time.Millisecond),
		},
		Runtime:     s.runtimeSection(uptime),
		PlanQuality: s.planQualitySection(),
		Replication: s.replicationSection(),
		DB:          st.db.Stats(),
	}
}

// replicationSection renders the /stats "replication" document from
// whichever replication role is configured (nil when neither is).
func (s *Server) replicationSection() map[string]any {
	switch {
	case s.cfg.Replication != nil:
		return s.cfg.Replication.StatsSection()
	case s.cfg.Follower != nil:
		return s.cfg.Follower.StatsSection()
	default:
		return nil
	}
}

// runtimeSection samples the Go runtime for /stats.
func (s *Server) runtimeSection(uptime time.Duration) RuntimeSection {
	rs := obs.ReadRuntimeStats()
	return RuntimeSection{
		Goroutines:    rs.Goroutines,
		HeapBytes:     rs.HeapAlloc,
		HeapObjects:   rs.HeapObjects,
		GCCycles:      rs.NumGC,
		GCPauseTotal:  rs.GCPauseTotal,
		GCPauseLast:   rs.GCPauseLast,
		UptimeSeconds: uptime.Seconds(),
	}
}

func (s *Server) planQualitySection() PlanQualitySection {
	gen, n, mean := s.planQual.Summary()
	return PlanQualitySection{Generation: gen, Samples: n, MeanEstActualRatio: mean}
}

// writePathSection renders the served database's group-commit and
// overlay copy-on-write statistics.
func writePathSection(db *amber.DB) WritePathSection {
	ws := db.WriteStats()
	sec := WritePathSection{
		Batches:              ws.Batches,
		Groups:               ws.Groups,
		MaxGroupSize:         ws.MaxGroupSize,
		GroupSizeBounds:      ws.GroupSizeBounds,
		GroupSizeBuckets:     ws.GroupSizeBuckets,
		OverlayEntriesCopied: ws.OverlayEntriesCopied,
		OverlayBytesCopied:   ws.OverlayBytesCopied,
		OverlayVersions:      ws.OverlayVersions,
	}
	if ws.Groups > 0 {
		sec.MeanGroupSize = float64(ws.Batches) / float64(ws.Groups)
	}
	if d := db.Durability(); d.Enabled && ws.Batches > 0 {
		sec.FsyncsPerBatch = float64(d.Fsyncs) / float64(ws.Batches)
	}
	return sec
}

// durabilitySection renders the served database's WAL state.
func durabilitySection(db *amber.DB) DurabilitySection {
	d := db.Durability()
	sec := DurabilitySection{
		Enabled:             d.Enabled,
		Policy:              d.Policy,
		WALBytes:            d.WALBytes,
		Segments:            d.Segments,
		LastSeq:             d.LastSeq,
		CheckpointSeq:       d.CheckpointSeq,
		Appends:             d.Appends,
		Fsyncs:              d.Fsyncs,
		Replayed:            d.Replayed,
		Checkpoints:         d.Checkpoints,
		LastCheckpointError: d.LastCheckpointError,
	}
	if !d.LastCheckpoint.IsZero() {
		sec.LastCheckpoint = d.LastCheckpoint.Format(time.RFC3339)
	}
	return sec
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats()) //nolint:errcheck
}
