// Package engine implements AMbER's online query-matching procedure
// (Section 5 of the paper): the recursive sub-multigraph homomorphism
// search over the core vertices of the query multigraph, with satellite
// vertices resolved in bulk at each step (Algorithms 1–4). The engine
// executes a plan.Plan — the matching order and the precomputed
// per-vertex candidate constraints are planning decisions made by
// internal/plan, not here.
//
// Two evaluation modes are offered. Stream enumerates embeddings one by
// one, generating the Cartesian product of satellite candidate sets
// lazily (GenEmb). Count returns the number of embeddings, exploiting the
// factorized representation: a solution with satellite candidate sets of
// sizes n1..nk contributes n1·…·nk embeddings without materializing them.
package engine

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/otil"
	"repro/internal/plan"
	"repro/internal/query"
)

// ErrDeadlineExceeded is returned when Options.Deadline passes before the
// search completes. Partial results already yielded remain valid.
var ErrDeadlineExceeded = errors.New("engine: deadline exceeded")

// Options control a matching run.
type Options struct {
	// Limit stops the enumeration after this many embeddings (0 = all).
	Limit int
	// Deadline aborts the search when passed (zero = none). The paper's
	// experiments use a 60-second per-query constraint.
	Deadline time.Time
	// Ctx, when non-nil, aborts the search when the context is done —
	// the engine polls ctx.Done() alongside the deadline, so a server
	// can cancel in-flight work when its client disconnects. The run
	// then returns ctx.Err().
	Ctx context.Context
	// Stats, when non-nil, is filled with search counters.
	Stats *Stats
	// Meter, when non-nil, receives live resource accounting: the match
	// loop accumulates into matcher-local plain counters and flushes
	// them into the meter's atomics at the deadline-poll cadence (and on
	// join), so concurrent /debug/queries scrapes see fresh numbers
	// without an atomic op per step. Unlike Stats, the meter IS shared
	// with parallel workers — each worker flushes its own deltas.
	Meter *obs.ResourceMeter
}

// Stats reports search effort counters.
type Stats struct {
	// InitCandidates is |CandInit| for each component's initial vertex,
	// summed over components.
	InitCandidates int
	// Recursions counts HomomorphicMatch invocations.
	Recursions int
	// SatProbes counts satellite candidate-set computations.
	SatProbes int
	// Embeddings counts embeddings yielded (Stream) or counted (Count).
	Embeddings uint64
	// Levels records the actual candidate frontier observed at every
	// core-vertex matching level of the plan — the measured counterpart of
	// the planner's estimates. Unlike the scalar counters, which
	// accumulate across runs, Levels is reset to the executed plan's shape
	// at the start of each run and so always describes the last run.
	Levels []LevelStats
}

// LevelStats is one core-vertex matching level: Visits counts how many
// times the level's candidate set was computed (the level's share of the
// recursion), Candidates sums the set sizes across those visits. The
// mean frontier size Candidates/Visits is directly comparable to the
// planner's per-level estimate (plan.ComponentPlan.Estimates).
type LevelStats struct {
	Component  int
	Pos        int
	Vertex     query.VertexID
	Candidates uint64
	Visits     uint64
}

// deadlineCheckMask throttles clock reads to one per this many steps.
const deadlineCheckMask = 255

//amber:hot
type matcher struct {
	r index.Reader
	p *plan.Plan
	q *query.Graph // p.Query, cached

	asg     []dict.VertexID   // current assignment, indexed by query vertex
	satSets [][]dict.VertexID // per-branch satellite candidate sets
	// matched marks the core vertices assigned on the current branch. One
	// array serves every component: components share no query vertex, so
	// the nested search of component ci+1 never reads or writes ci's marks.
	matched []bool
	// initCand[ci] memoises CandInit of component ci for the whole run
	// (initDone[ci] tells a computed empty list from a pending one): Stream
	// re-enters component ci+1 once per embedding of component ci, and the
	// list depends only on the plan and the reader. It lives here, not in
	// the cached plan.Plan, because it can be as long as the vertex set.
	initCand [][]dict.VertexID
	initDone []bool
	litBuf   [][]dict.VertexID // per literal satellite, reused across visits

	yield    func([]dict.VertexID) bool
	limit    int
	deadline time.Time
	done     <-chan struct{} // Ctx.Done(), nil without a context
	ctx      context.Context
	stats    *Stats
	levelIdx []int // per-component offsets; nil without stats and meter

	// Meter plumbing: the m* fields are this matcher's unflushed
	// resource deltas (flushed by flushMeter, reset to zero after).
	meter       *obs.ResourceMeter
	totalLevels int
	mCand       uint64 // candidate-set entries generated
	mVisits     uint64 // candidate vertices tried
	mInters     uint64 // sorted-list intersections
	mProbes     uint64 // overlay index probes

	steps    int
	yielded  uint64
	overlay  bool  // reader serves through a non-empty mutation overlay
	stopped  bool  // yield refused or limit reached
	expired  bool  // deadline passed or context done
	abortErr error // why the search aborted (expired only)
}

// flushMeter pushes the accumulated resource deltas into the shared
// atomic meter and resets them. Called from the throttled deadline-poll
// path and at search end, so the hot loop stays free of atomic traffic.
func (m *matcher) flushMeter() {
	if m.meter == nil {
		return
	}
	m.meter.FlushEngine(m.mCand, m.mVisits, m.mInters, m.mProbes)
	m.mCand, m.mVisits, m.mInters, m.mProbes = 0, 0, 0, 0
}

// countProbe tallies one index probe for the overlay-probe meter.
//
//amber:hotloop
func (m *matcher) countProbe() {
	if m.overlay {
		m.mProbes++
	}
}

// checkDeadline reports whether the search must abort: the deadline
// passed, or the run's context was cancelled. Clock reads and channel
// polls are throttled to one per deadlineCheckMask+1 steps.
//
//amber:hotloop poll
func (m *matcher) checkDeadline() bool {
	if m.expired {
		return true
	}
	m.steps++
	m.mVisits++
	if m.steps&deadlineCheckMask != 0 || (m.deadline.IsZero() && m.done == nil && m.meter == nil) {
		return false
	}
	m.flushMeter()
	if m.done != nil {
		select {
		case <-m.done:
			m.expired = true
			m.abortErr = m.ctx.Err()
			return true
		default:
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		m.expired = true
		m.abortErr = ErrDeadlineExceeded
	}
	return m.expired
}

// Stream enumerates the homomorphic embeddings of plan p in g, invoking
// yield with the assignment slice (indexed by query.VertexID; the slice is
// reused between calls — copy it to retain). Enumeration stops when yield
// returns false. It returns ErrDeadlineExceeded if the deadline passed.
func Stream(r index.Reader, p *plan.Plan, opts Options, yield func([]dict.VertexID) bool) error {
	m, ok := prepare(r, p, opts)
	m.yield = yield
	defer m.flushMeter()
	if m.expired {
		return m.abortErr
	}
	if !ok {
		return nil
	}
	if len(m.q.Vars) == 0 {
		// Fully ground query whose checks passed: one empty embedding.
		m.emit()
		return nil
	}
	m.matchComponent(0)
	if m.expired {
		return m.abortErr
	}
	return nil
}

// Count returns the number of embeddings of plan p in g, using the
// factorized satellite representation. When opts.Limit > 0 the returned
// count is capped at the limit.
func Count(r index.Reader, p *plan.Plan, opts Options) (uint64, error) {
	m, ok := prepare(r, p, opts)
	defer m.flushMeter()
	if m.expired {
		return 0, m.abortErr
	}
	if !ok {
		return 0, nil
	}
	if len(m.q.Vars) == 0 {
		if m.stats != nil {
			m.stats.Embeddings = 1
		}
		return 1, nil
	}
	total := uint64(1)
	for ci := range p.Components {
		c, err := m.countComponent(ci)
		if err != nil {
			return 0, err
		}
		total = mulSat(total, c)
		if total == 0 {
			break
		}
	}
	if opts.Limit > 0 && total > uint64(opts.Limit) {
		total = uint64(opts.Limit)
	}
	if m.stats != nil {
		m.stats.Embeddings = total
	}
	return total, nil
}

// prepare validates the plan's zero-result verdict and allocates the
// per-run state. The Algorithm 1 candidate sets and ground checks were
// already computed at plan time (internal/plan), so repeated executions of
// a cached plan skip them entirely. ok=false means zero results.
func prepare(r index.Reader, p *plan.Plan, opts Options) (*matcher, bool) {
	m := &matcher{
		r: r, p: p, q: p.Query,
		limit:    opts.Limit,
		deadline: opts.Deadline,
		stats:    opts.Stats,
		meter:    opts.Meter,
	}
	if m.meter != nil {
		// Overlay detection: the delta view's Reader exposes Empty; a
		// frozen GraphReader does not (every probe is a base probe).
		if ov, ok := r.(interface{ Empty() bool }); ok && !ov.Empty() {
			m.overlay = true
		}
	}
	if opts.Ctx != nil {
		m.ctx, m.done = opts.Ctx, opts.Ctx.Done()
		if err := m.ctx.Err(); err != nil {
			m.expired = true
			m.abortErr = err
			return m, false
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		m.expired = true
		m.abortErr = ErrDeadlineExceeded
		return m, false
	}
	if p.Empty {
		return m, false
	}
	if m.stats != nil || m.meter != nil {
		total := 0
		m.levelIdx = make([]int, len(p.Components))
		for ci := range p.Components {
			m.levelIdx[ci] = total
			total += len(p.Components[ci].Core)
		}
		m.totalLevels = total
		if m.stats != nil {
			levels := make([]LevelStats, total)
			for ci := range p.Components {
				for pos, u := range p.Components[ci].Core {
					levels[m.levelIdx[ci]+pos] = LevelStats{Component: ci, Pos: pos, Vertex: u}
				}
			}
			m.stats.Levels = levels
		}
		m.meter.SetProgress(0, total)
	}
	n := len(m.q.Vars)
	m.asg = make([]dict.VertexID, n)
	m.satSets = make([][]dict.VertexID, n)
	m.litBuf = make([][]dict.VertexID, n)
	m.matched = make([]bool, n)
	m.initCand = make([][]dict.VertexID, len(p.Components))
	m.initDone = make([]bool, len(p.Components))
	return m, true
}

// recordLevel accumulates one computation of a core level's candidate
// set into stats.Levels and the resource meter.
//
//amber:hotloop
func (m *matcher) recordLevel(ci, pos, n int) {
	if m.levelIdx == nil {
		return
	}
	if m.meter != nil {
		m.mCand += uint64(n)
		m.meter.SetProgress(m.levelIdx[ci]+pos+1, m.totalLevels)
	}
	if m.stats == nil {
		return
	}
	l := &m.stats.Levels[m.levelIdx[ci]+pos]
	l.Candidates += uint64(n)
	l.Visits++
}

// admissible applies the per-candidate constraints that are cheaper to
// check than to pre-intersect: self-loop edge types.
//
//amber:hotloop
func (m *matcher) admissible(u query.VertexID, v dict.VertexID) bool {
	st := m.q.Vars[u].SelfTypes
	if len(st) == 0 {
		return true
	}
	m.countProbe()
	return m.r.HasEdgeTypes(v, v, st)
}

// restrict intersects cand with u's fixed candidates (if any) and filters
// self-loops. cand must be sorted; the result is sorted.
//
//amber:hotloop
func (m *matcher) restrict(u query.VertexID, cand []dict.VertexID) []dict.VertexID {
	if m.p.IsFixed[int(u)] {
		cand = otil.IntersectSorted(cand, m.p.Fixed[int(u)])
		m.mInters++
	}
	if len(m.q.Vars[u].SelfTypes) == 0 {
		return cand
	}
	out := cand[:0:0]
	for _, v := range cand {
		if m.admissible(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// InitialCandidates computes CandInit for query vertex u as if u were its
// component's initial vertex: the one kernel behind every run's first
// step and behind the standalone "actual" count of an explain report.
func InitialCandidates(r index.Reader, p *plan.Plan, u query.VertexID) []dict.VertexID {
	m := &matcher{r: r, p: p, q: p.Query}
	return m.candInit(u)
}

// candInit is the CandInit kernel (Algorithm 3, lines 4–5): the S index
// probe (QuerySynIndex) refined by ProcessVertex. A literal satellite that
// forms its own component (constant subject) has its exact mixed
// vertex/literal candidate list precomputed at plan time; the signature
// index knows nothing about literals, so the probe is skipped.
//
//amber:hotloop
func (m *matcher) candInit(u query.VertexID) []dict.VertexID {
	if m.q.Vars[u].Lit != nil {
		return m.p.Fixed[int(u)]
	}
	m.countProbe()
	return m.restrict(u, m.r.SignatureCandidates(m.q.Synopsis(u)))
}

// initialCandidates returns CandInit of component ci, computing it on the
// component's first visit of the run and recording its size — into Stats
// and as the level-0 frontier — exactly then.
//
//amber:hotloop
func (m *matcher) initialCandidates(ci int) []dict.VertexID {
	if !m.initDone[ci] {
		cand := m.candInit(m.p.Components[ci].Core[0])
		m.initCand[ci], m.initDone[ci] = cand, true
		if m.stats != nil {
			m.stats.InitCandidates += len(cand)
		}
		m.recordLevel(ci, 0, len(cand))
	}
	return m.initCand[ci]
}

// satCandidates is Algorithm 2 for a single satellite us attached to core
// vertex uc matched at vc: neighbourhood probes for every direction of the
// multi-edge, refined by the fixed candidates. A literal satellite instead
// unions the vertex-side neighbourhood probe with vc's matching attributes
// (encoded literal bindings, which sort after every vertex id).
//
//amber:hotloop
func (m *matcher) satCandidates(uc, us query.VertexID, vc dict.VertexID) []dict.VertexID {
	if m.stats != nil {
		m.stats.SatProbes++
	}
	if lit := m.q.Vars[us].Lit; lit != nil {
		return m.litCandidates(us, lit, vc)
	}
	toSat, fromSat := m.q.EdgesBetween(uc, us)
	var cand []dict.VertexID
	have := false
	if len(toSat) > 0 { // edge uc → us: probe vc's outgoing side
		m.countProbe()
		cand = m.r.Neighbors(vc, index.Outgoing, toSat)
		have = true
	}
	if len(fromSat) > 0 { // edge us → uc: probe vc's incoming side
		m.countProbe()
		nb := m.r.Neighbors(vc, index.Incoming, fromSat)
		if have {
			cand = otil.IntersectSorted(cand, nb)
			m.mInters++
		} else {
			cand = nb
		}
	}
	return m.restrict(us, cand)
}

// litCandidates computes a literal satellite's candidate set under the
// subject match vc: p-edge neighbours (when p is an edge type) followed by
// vc's <p, ·> attributes as encoded literal bindings. Both halves are
// sorted and every encoded binding exceeds every vertex id, so the
// concatenation is sorted. It is built in us's scratch buffer: a
// satellite's set is dead once its core vertex moves to the next candidate.
//
//amber:hotloop
func (m *matcher) litCandidates(us query.VertexID, lit *query.LitSat, vc dict.VertexID) []dict.VertexID {
	var verts []dict.VertexID
	if len(lit.Types) > 0 {
		m.countProbe()
		verts = m.r.Neighbors(vc, index.Outgoing, lit.Types)
	}
	m.countProbe()
	attrs := otil.IntersectSorted(m.r.VertexAttrs(vc), lit.Attrs)
	m.mInters++
	if len(attrs) == 0 {
		return verts
	}
	out := append(m.litBuf[us][:0], verts...)
	for _, a := range attrs {
		out = append(out, dict.EncodeAttrBinding(a))
	}
	m.litBuf[us] = out
	return out
}

// matchSatellites is Algorithm 2: computes candidate sets for all
// satellites of core vertex uc under match vc, storing them in satSets.
// It reports false when some satellite has no candidates (vc invalid).
//
//amber:hotloop
func (m *matcher) matchSatellites(uc query.VertexID, vc dict.VertexID, sats []query.VertexID) bool {
	for _, us := range sats {
		cand := m.satCandidates(uc, us, vc)
		if len(cand) == 0 {
			return false
		}
		m.mCand += uint64(len(cand))
		m.satSets[us] = cand
	}
	return true
}

// coreCandidates computes Cand_unxt for a non-initial core vertex
// (Algorithm 4, lines 5–8): the intersection of neighbourhood probes from
// every already-matched neighbour, refined by ProcessVertex.
//
//amber:hotloop
func (m *matcher) coreCandidates(unxt query.VertexID) []dict.VertexID {
	var cand []dict.VertexID
	have := false
	add := func(nb []dict.VertexID) bool {
		if have {
			cand = otil.IntersectSorted(cand, nb)
			m.mInters++
		} else {
			cand, have = nb, true
		}
		return len(cand) > 0
	}
	v := &m.q.Vars[unxt]
	for _, e := range v.Out { // unxt → e.To
		if !m.matched[e.To] {
			continue
		}
		vn := m.asg[e.To]
		m.countProbe()
		if !add(m.r.Neighbors(vn, index.Incoming, e.Types)) {
			return nil
		}
	}
	for _, e := range v.In { // e.To → unxt
		if !m.matched[e.To] {
			continue
		}
		vn := m.asg[e.To]
		m.countProbe()
		if !add(m.r.Neighbors(vn, index.Outgoing, e.Types)) {
			return nil
		}
	}
	if !have {
		// Ordering guarantees connectivity to the matched prefix; reaching
		// here means a single-vertex component handled elsewhere.
		return nil
	}
	return m.restrict(unxt, cand)
}

// ---- Stream mode -----------------------------------------------------

// matchComponent runs AMbER-Algo (Algorithm 3) for component ci and, on
// completion of all components, emits embeddings.
//
//amber:hotloop
func (m *matcher) matchComponent(ci int) {
	if m.stopped || m.expired {
		return
	}
	if ci == len(m.p.Components) {
		m.emit()
		return
	}
	comp := &m.p.Components[ci]
	uinit := comp.Core[0]
	for _, vinit := range m.initialCandidates(ci) {
		if m.stopped || m.checkDeadline() {
			return
		}
		if !m.matchSatellites(uinit, vinit, comp.Satellites[uinit]) {
			continue
		}
		m.asg[uinit] = vinit
		m.matched[uinit] = true
		m.homomorphicMatch(ci, comp, 1)
		m.matched[uinit] = false
	}
}

// homomorphicMatch is Algorithm 4 in stream mode: extend the match to core
// vertex comp.Core[pos].
//
//amber:hotloop
func (m *matcher) homomorphicMatch(ci int, comp *plan.ComponentPlan, pos int) {
	if m.stopped || m.checkDeadline() {
		return
	}
	if m.stats != nil {
		m.stats.Recursions++
	}
	if pos == len(comp.Core) {
		// All cores matched: expand this component's satellites, then move
		// to the next component.
		m.enumerateSatellites(ci, comp.AllSatellites(), 0)
		return
	}
	unxt := comp.Core[pos]
	cand := m.coreCandidates(unxt)
	m.recordLevel(ci, pos, len(cand))
	for _, vnxt := range cand {
		if m.stopped || m.expired {
			return
		}
		if !m.matchSatellites(unxt, vnxt, comp.Satellites[unxt]) {
			continue
		}
		m.asg[unxt] = vnxt
		m.matched[unxt] = true
		m.homomorphicMatch(ci, comp, pos+1)
		m.matched[unxt] = false
	}
}

// enumerateSatellites is GenEmb: lazy Cartesian product over the satellite
// candidate sets of component ci, then descent into the next component.
//
//amber:hotloop
func (m *matcher) enumerateSatellites(ci int, sats []query.VertexID, k int) {
	if m.stopped || m.expired {
		return
	}
	if k == len(sats) {
		m.matchComponent(ci + 1)
		return
	}
	us := sats[k]
	for _, v := range m.satSets[us] {
		if m.stopped || m.checkDeadline() {
			return
		}
		m.asg[us] = v
		m.enumerateSatellites(ci, sats, k+1)
	}
}

// emit yields the current assignment.
//
//amber:hotloop
func (m *matcher) emit() {
	m.yielded++
	if m.stats != nil {
		m.stats.Embeddings = m.yielded
	}
	if m.yield != nil && !m.yield(m.asg) {
		m.stopped = true
		return
	}
	if m.limit > 0 && m.yielded >= uint64(m.limit) {
		m.stopped = true
	}
}

// ---- Count mode ------------------------------------------------------

// countComponent counts the embeddings contributed by one component as the
// sum over core solutions of the product of satellite set sizes.
//
//amber:hotloop
func (m *matcher) countComponent(ci int) (uint64, error) {
	total := uint64(0)
	for _, vinit := range m.initialCandidates(ci) {
		sub, err := m.countFromInitial(ci, vinit)
		if err != nil {
			return 0, err
		}
		total = addSat(total, sub)
	}
	return total, nil
}

// countFromInitial counts the embeddings of component ci rooted at one
// initial candidate vinit: the loop body of the serial count, and the unit
// of work CountParallel hands its workers (whose master computed CandInit
// once against the immutable, shared plan).
//
//amber:hotloop
func (m *matcher) countFromInitial(ci int, vinit dict.VertexID) (uint64, error) {
	comp := &m.p.Components[ci]
	uinit := comp.Core[0]
	if m.checkDeadline() {
		return 0, m.abortErr
	}
	if !m.matchSatellites(uinit, vinit, comp.Satellites[uinit]) {
		return 0, nil
	}
	m.asg[uinit] = vinit
	m.matched[uinit] = true
	n, err := m.countMatch(ci, comp, 1)
	m.matched[uinit] = false
	return n, err
}

// countMatch mirrors homomorphicMatch in count mode.
//
//amber:hotloop
func (m *matcher) countMatch(ci int, comp *plan.ComponentPlan, pos int) (uint64, error) {
	if m.checkDeadline() {
		return 0, m.abortErr
	}
	if m.stats != nil {
		m.stats.Recursions++
	}
	if pos == len(comp.Core) {
		prod := uint64(1)
		for _, us := range comp.AllSatellites() {
			prod = mulSat(prod, uint64(len(m.satSets[us])))
		}
		return prod, nil
	}
	unxt := comp.Core[pos]
	total := uint64(0)
	cand := m.coreCandidates(unxt)
	m.recordLevel(ci, pos, len(cand))
	for _, vnxt := range cand {
		if !m.matchSatellites(unxt, vnxt, comp.Satellites[unxt]) {
			continue
		}
		m.asg[unxt] = vnxt
		m.matched[unxt] = true
		sub, err := m.countMatch(ci, comp, pos+1)
		m.matched[unxt] = false
		if err != nil {
			return 0, err
		}
		total = addSat(total, sub)
	}
	return total, nil
}

// addSat and mulSat are saturating uint64 arithmetic: embedding counts can
// genuinely overflow on Cartesian blow-ups.
func addSat(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func mulSat(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}
