package obs

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cancellation causes installed on a query's context by the governance
// layer. The engine aborts with context.Canceled either way; handlers
// recover the reason through context.Cause to tell an operator kill or a
// resource-guard trip apart from an ordinary client disconnect.
var (
	// ErrAdminCancelled is the cause installed by Inflight.Cancel — an
	// operator killed the query through the admin surface.
	ErrAdminCancelled = errors.New("obs: query cancelled by administrator")
	// ErrResourceLimit is the cause installed by a ResourceMeter whose
	// visit count exceeded its configured cap.
	ErrResourceLimit = errors.New("obs: query exceeded resource limit")
)

// ResourceMeter is one query's live resource account: atomic counters
// the engine flushes into from its match loop (worker-local accumulation,
// flushed at the context-poll cadence, so the hot loop never contends)
// plus the server-side row and byte tallies. A nil meter is a valid
// no-op receiver everywhere.
//
// The meter doubles as a resource guard: SetVisitLimit arms a cap on
// vertices visited, and the flush that crosses it cancels the query's
// context with ErrResourceLimit.
//
//amber:hot
type ResourceMeter struct {
	candidates    atomic.Uint64 // candidate-set entries generated
	visits        atomic.Uint64 // candidate vertices tried by the match loops
	intersections atomic.Uint64 // sorted-list intersections computed
	overlayProbes atomic.Uint64 // index probes served through a non-empty overlay
	rows          atomic.Uint64 // result rows emitted to the client
	bytes         atomic.Uint64 // response bytes serialized
	progress      atomic.Uint64 // current plan level << 32 | total levels

	maxVisits uint64
	cancel    context.CancelCauseFunc
	limited   atomic.Bool
}

// NewResourceMeter returns an empty meter with no visit cap.
func NewResourceMeter() *ResourceMeter { return &ResourceMeter{} }

// SetVisitLimit arms the resource guard: the engine flush that pushes
// the visit count past max cancels the query via cancel(ErrResourceLimit).
// Call before execution starts; max 0 disables the guard.
func (m *ResourceMeter) SetVisitLimit(max uint64, cancel context.CancelCauseFunc) {
	if m == nil {
		return
	}
	m.maxVisits = max
	m.cancel = cancel
}

// FlushEngine accumulates one engine-side batch of counters. The engine
// calls it from its throttled context-poll path (every few hundred
// steps) and once at search end, so counters are live while the query
// runs without an atomic op per match step.
func (m *ResourceMeter) FlushEngine(candidates, visits, intersections, overlayProbes uint64) {
	if m == nil {
		return
	}
	m.candidates.Add(candidates)
	v := m.visits.Add(visits)
	m.intersections.Add(intersections)
	m.overlayProbes.Add(overlayProbes)
	if m.maxVisits > 0 && v > m.maxVisits && m.cancel != nil &&
		m.limited.CompareAndSwap(false, true) {
		m.cancel(ErrResourceLimit)
	}
}

// AddRows counts result rows emitted to the client.
func (m *ResourceMeter) AddRows(n uint64) {
	if m != nil {
		m.rows.Add(n)
	}
}

// AddBytes counts response bytes serialized to the client.
func (m *ResourceMeter) AddBytes(n uint64) {
	if m != nil {
		m.bytes.Add(n)
	}
}

// SetProgress records the matching position: the plan level whose
// candidate set was computed most recently, out of the plan's total core
// levels (summed over components; for UNION queries, each branch's run
// overwrites it). The engine stores it with each flush, so a live value
// lags the search by at most one poll interval.
func (m *ResourceMeter) SetProgress(level, total int) {
	if m == nil {
		return
	}
	m.progress.Store(uint64(uint32(level))<<32 | uint64(uint32(total)))
}

// Limited reports whether the visit guard tripped.
func (m *ResourceMeter) Limited() bool { return m != nil && m.limited.Load() }

// Visits returns the live count of vertices visited.
func (m *ResourceMeter) Visits() uint64 {
	if m == nil {
		return 0
	}
	return m.visits.Load()
}

// MeterView is the JSON snapshot of a meter (/debug/queries, traces,
// slow-query records).
type MeterView struct {
	Candidates      uint64 `json:"candidates"`
	VerticesVisited uint64 `json:"vertices_visited"`
	Intersections   uint64 `json:"intersections"`
	OverlayProbes   uint64 `json:"overlay_probes"`
	RowsEmitted     uint64 `json:"rows_emitted"`
	BytesSerialized uint64 `json:"bytes_serialized"`
	Level           int    `json:"level"`
	TotalLevels     int    `json:"total_levels"`
	ResourceLimited bool   `json:"resource_limited,omitempty"`
}

// View snapshots the meter.
func (m *ResourceMeter) View() MeterView {
	if m == nil {
		return MeterView{}
	}
	p := m.progress.Load()
	return MeterView{
		Candidates:      m.candidates.Load(),
		VerticesVisited: m.visits.Load(),
		Intersections:   m.intersections.Load(),
		OverlayProbes:   m.overlayProbes.Load(),
		RowsEmitted:     m.rows.Load(),
		BytesSerialized: m.bytes.Load(),
		Level:           int(uint32(p >> 32)),
		TotalLevels:     int(uint32(p)),
		ResourceLimited: m.limited.Load(),
	}
}

// ---- in-flight registry -------------------------------------------------

// InflightEntry is one registered in-flight request. Entries are created
// by Inflight.Register on admission and removed when the request
// finishes; Cancel reaches the entry's context between those points.
type InflightEntry struct {
	id     string
	query  string
	kind   string // "query", "update", "explain"
	client string
	epoch  uint64
	start  time.Time
	meter  *ResourceMeter
	shape  func() string // nil when the request has no plan (updates)
	cancel context.CancelCauseFunc

	cancelled atomic.Bool // an admin cancel was delivered
}

// InflightView is the JSON form of a live entry (/debug/queries).
type InflightView struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Query     string    `json:"query"`
	Shape     string    `json:"shape,omitempty"`
	Epoch     uint64    `json:"epoch"`
	Client    string    `json:"client,omitempty"`
	Start     string    `json:"start"`
	AgeMillis float64   `json:"age_ms"`
	Cancelled bool      `json:"cancelled,omitempty"`
	Resources MeterView `json:"resources"`
}

func (e *InflightEntry) view(now time.Time) InflightView {
	v := InflightView{
		ID:        e.id,
		Kind:      e.kind,
		Query:     e.query,
		Epoch:     e.epoch,
		Client:    e.client,
		Start:     e.start.UTC().Format(time.RFC3339Nano),
		AgeMillis: float64(now.Sub(e.start)) / float64(time.Millisecond),
		Cancelled: e.cancelled.Load(),
		Resources: e.meter.View(),
	}
	if e.shape != nil {
		v.Shape = e.shape()
	}
	return v
}

// Inflight is the registry of requests currently holding an execution
// slot: the data behind GET /debug/queries and the dispatch table for
// POST /admin/queries/{id}/cancel. Safe for concurrent use.
type Inflight struct {
	mu sync.Mutex
	m  map[string]*InflightEntry
}

// NewInflight returns an empty registry.
func NewInflight() *Inflight {
	return &Inflight{m: make(map[string]*InflightEntry)}
}

// Register adds an entry for a request admitted to execution. query is
// truncated to MaxTraceQuery bytes; shape may be nil; cancel is the
// request context's cancel-with-cause hook (what an admin cancel
// invokes). The caller must Remove(id) when the request finishes.
func (f *Inflight) Register(id, query, kind, client string, epoch uint64,
	meter *ResourceMeter, shape func() string, cancel context.CancelCauseFunc) *InflightEntry {
	if f == nil {
		return nil
	}
	if len(query) > MaxTraceQuery {
		query = query[:MaxTraceQuery]
	}
	e := &InflightEntry{
		id: id, query: query, kind: kind, client: client,
		epoch: epoch, start: time.Now(), meter: meter, shape: shape, cancel: cancel,
	}
	f.mu.Lock()
	f.m[id] = e
	f.mu.Unlock()
	return e
}

// Remove drops the entry when its request finishes. Removing an unknown
// id is a no-op (a racing admin cancel may have observed the entry, but
// only the owning handler removes it).
func (f *Inflight) Remove(id string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.m, id)
	f.mu.Unlock()
}

// Cancel delivers an administrative cancellation to the identified
// request: its context is cancelled with ErrAdminCancelled, so the
// engine aborts at its next poll and the handler frees the admission
// slot through its normal error path. It reports whether the id was
// in flight.
func (f *Inflight) Cancel(id string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	e, ok := f.m[id]
	f.mu.Unlock()
	if !ok {
		return false
	}
	e.cancelled.Store(true)
	if e.cancel != nil {
		e.cancel(ErrAdminCancelled)
	}
	return true
}

// Len returns the number of in-flight entries (the amber_inflight_queries
// gauge).
func (f *Inflight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// Snapshot lists the in-flight entries, oldest first.
func (f *Inflight) Snapshot() []InflightView {
	if f == nil {
		return nil
	}
	now := time.Now()
	f.mu.Lock()
	views := make([]InflightView, 0, len(f.m))
	for _, e := range f.m {
		views = append(views, e.view(now))
	}
	f.mu.Unlock()
	sort.Slice(views, func(i, j int) bool {
		if views[i].Start != views[j].Start {
			return views[i].Start < views[j].Start
		}
		return views[i].ID < views[j].ID
	})
	return views
}
