package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// MaxTraceQuery bounds how much query text a trace (and thus the slow
// log and /debug/traces) retains.
const MaxTraceQuery = 1024

// reqPrefix is a per-process random prefix so request IDs from different
// server instances never collide in aggregated logs.
var reqPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req"
	}
	return hex.EncodeToString(b[:])
}()

var reqSeq atomic.Uint64

// NewRequestID returns a process-unique request identifier
// ("<hex>-<seq>"), cheap enough to mint per request.
func NewRequestID() string {
	return fmt.Sprintf("%s-%d", reqPrefix, reqSeq.Add(1))
}

// Span is one timed stage of a request, offset-relative to the trace
// start.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_us"`
	Duration time.Duration `json:"duration_us"`
}

// EngineCounters are the engine's search-effort counters: those of one
// run in engine.Stats, and their sum over every branch of one execution
// in a Trace.
type EngineCounters struct {
	// InitCandidates is |CandInit| for each component's initial vertex,
	// summed over components.
	InitCandidates int `json:"init_candidates"`
	// Recursions counts HomomorphicMatch invocations.
	Recursions int `json:"recursions"`
	// SatProbes counts satellite candidate-set computations.
	SatProbes int `json:"sat_probes"`
	// Embeddings counts embeddings yielded (Stream) or counted (Count).
	Embeddings uint64 `json:"embeddings"`
}

// Add adds c's counters to e's.
func (e *EngineCounters) Add(c EngineCounters) {
	e.InitCandidates += c.InitCandidates
	e.Recursions += c.Recursions
	e.SatProbes += c.SatProbes
	e.Embeddings += c.Embeddings
}

// Level is one core-vertex matching level of one branch: the planner's
// estimated candidate-set size against what the engine actually
// enumerated. Visits counts how many times the level's candidate set was
// computed (the per-level recursion count); Candidates sums the set
// sizes across those visits.
type Level struct {
	Branch     int     `json:"branch"`
	Component  int     `json:"component"`
	Pos        int     `json:"pos"`
	Var        string  `json:"var"`
	Est        float64 `json:"est"`
	Candidates uint64  `json:"candidates"`
	Visits     uint64  `json:"visits"`
}

// Mean returns the average candidate-set size per visit.
func (l Level) Mean() float64 {
	if l.Visits == 0 {
		return 0
	}
	return float64(l.Candidates) / float64(l.Visits)
}

// Trace is one request's record: identity, stage spans, and — when the
// execution layer sees it in the context — the engine's effort counters
// and per-level frontier sizes. A Trace is safe for concurrent use; all
// methods are nil-receiver-safe so call sites need no branching.
type Trace struct {
	ID    string
	Time  time.Time // wall-clock start
	Query string    // truncated to MaxTraceQuery

	mu          sync.Mutex
	shape       string
	planner     string
	planSummary string
	epoch       uint64
	spans       []Span
	engine      EngineCounters
	levels      []Level
	meter       *ResourceMeter
	status      string
	rows        uint64
	duration    time.Duration
	done        bool
}

// NewTrace starts a trace for the given query text with a fresh request
// ID. The text is truncated to MaxTraceQuery bytes.
func NewTrace(query string) *Trace {
	return NewTraceID(NewRequestID(), query)
}

// NewTraceID starts a trace under an already-minted request ID.
func NewTraceID(id, query string) *Trace {
	if len(query) > MaxTraceQuery {
		query = query[:MaxTraceQuery]
	}
	return &Trace{ID: id, Time: time.Now(), Query: query}
}

// Span records a stage span and returns the function that closes it.
//
//	defer tr.Span("parse_plan")()
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, time.Since(start)) }
}

// AddSpan records an already-measured stage duration (used for stages
// accumulated across many small steps, like per-row serialization).
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.Time) - d, Duration: d})
	t.mu.Unlock()
}

// SetPlan records the execution plan's identity: planner name, shape
// class, a one-line plan summary, and the snapshot epoch the query ran
// against.
func (t *Trace) SetPlan(planner, shape, summary string, epoch uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.planner, t.shape, t.planSummary, t.epoch = planner, shape, summary, epoch
	t.mu.Unlock()
}

// AddEngine accumulates one branch's engine counters.
func (t *Trace) AddEngine(c EngineCounters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.engine.Add(c)
	t.mu.Unlock()
}

// AddLevels appends one branch's per-level frontier records.
func (t *Trace) AddLevels(ls []Level) {
	if t == nil || len(ls) == 0 {
		return
	}
	t.mu.Lock()
	t.levels = append(t.levels, ls...)
	t.mu.Unlock()
}

// Finish seals the trace with its outcome ("ok", "hit", "timeout",
// "cancelled", "error", ...) and row count. Later Finish calls are
// ignored.
func (t *Trace) Finish(status string, rows uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.rows = rows
		t.duration = time.Since(t.Time)
	}
	t.mu.Unlock()
}

// SetMeter attaches the request's resource meter, so the trace's sealed
// view — and thus /debug/traces and the slow-query log — carries the
// query's final resource bill.
func (t *Trace) SetMeter(m *ResourceMeter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meter = m
	t.mu.Unlock()
}

// Meter returns the attached resource meter (nil when none). The
// execution layer hands it to the engine alongside the trace.
func (t *Trace) Meter() *ResourceMeter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meter
}

// Shape returns the recorded query-shape class ("" until SetPlan).
func (t *Trace) Shape() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shape
}

// Engine returns the accumulated engine counters.
func (t *Trace) Engine() EngineCounters {
	if t == nil {
		return EngineCounters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.engine
}

// Levels returns a copy of the per-level frontier records.
func (t *Trace) Levels() []Level {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Level(nil), t.levels...)
}

// Duration returns the sealed duration (zero before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// EstActualRatio summarizes planner accuracy over the trace's levels:
// the arithmetic mean of (est+1)/(mean actual+1) across visited levels
// with finite estimates. ok is false when no level qualifies. A ratio
// above 1 means the planner overestimated frontiers, below 1 that it
// underestimated them.
func (t *Trace) EstActualRatio() (ratio float64, ok bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum, n := 0.0, 0
	for _, l := range t.levels {
		if l.Visits == 0 || math.IsInf(l.Est, 0) || math.IsNaN(l.Est) {
			continue
		}
		sum += (l.Est + 1) / (l.Mean() + 1)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// TraceView is the JSON form of a sealed trace (/debug/traces, tests).
type TraceView struct {
	ID          string         `json:"id"`
	Time        string         `json:"time"`
	Query       string         `json:"query"`
	Shape       string         `json:"shape,omitempty"`
	Planner     string         `json:"planner,omitempty"`
	PlanSummary string         `json:"plan,omitempty"`
	Epoch       uint64         `json:"epoch"`
	Status      string         `json:"status"`
	Rows        uint64         `json:"rows"`
	DurationMS  float64        `json:"duration_ms"`
	Spans       []Span         `json:"spans,omitempty"`
	Engine      EngineCounters `json:"engine"`
	Levels      []Level        `json:"levels,omitempty"`
	Resources   *MeterView     `json:"resources,omitempty"`
}

// View snapshots the trace for serialization.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:          t.ID,
		Time:        t.Time.UTC().Format(time.RFC3339Nano),
		Query:       t.Query,
		Shape:       t.shape,
		Planner:     t.planner,
		PlanSummary: t.planSummary,
		Epoch:       t.epoch,
		Status:      t.status,
		Rows:        t.rows,
		DurationMS:  float64(t.duration) / float64(time.Millisecond),
		Spans:       append([]Span(nil), t.spans...),
		Engine:      t.engine,
		Levels:      append([]Level(nil), t.levels...),
	}
	if t.meter != nil {
		mv := t.meter.View()
		v.Resources = &mv
	}
	return v
}

// SlogAttrs renders the trace as structured-log attributes, the shared
// formatting between the server's slow-query log and cmd/amber -verbose.
func (t *Trace) SlogAttrs() []slog.Attr {
	v := t.View()
	attrs := []slog.Attr{
		slog.String("request_id", v.ID),
		slog.String("status", v.Status),
		slog.Float64("duration_ms", v.DurationMS),
		slog.Uint64("rows", v.Rows),
		slog.Int("recursions", v.Engine.Recursions),
		slog.Int("init_candidates", v.Engine.InitCandidates),
		slog.Int("sat_probes", v.Engine.SatProbes),
	}
	if v.Shape != "" {
		attrs = append(attrs, slog.String("shape", v.Shape))
	}
	if v.PlanSummary != "" {
		attrs = append(attrs, slog.String("plan", v.PlanSummary))
	}
	for _, sp := range v.Spans {
		attrs = append(attrs, slog.Float64(sp.Name+"_ms", float64(sp.Duration)/float64(time.Millisecond)))
	}
	return attrs
}

// ---- context carry ------------------------------------------------------

type traceKey struct{}

// ContextWithTrace returns a context carrying the trace; the execution
// layer (core.PreparedQuery.Execute) picks it up and fills in engine
// counters and per-level frontiers.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFromContext returns the context's trace, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ---- recent-trace ring --------------------------------------------------

// TraceRing retains the N most recent traces for /debug/traces.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// NewTraceRing builds a ring of the given capacity, which must be
// positive.
func NewTraceRing(capacity int) *TraceRing {
	return &TraceRing{buf: make([]*Trace, capacity)}
}

// Add records a trace.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces, most recent first.
func (r *TraceRing) Snapshot() []TraceView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
		return nil
	}
	out := make([]TraceView, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx].View())
	}
	r.mu.Unlock()
	return out
}
