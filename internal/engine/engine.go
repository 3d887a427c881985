// Package engine implements AMbER's online query-matching procedure
// (Section 5 of the paper): the recursive sub-multigraph homomorphism
// search over the core vertices of the query multigraph, with satellite
// vertices resolved in bulk at each step (Algorithms 1–4). The engine
// executes a plan.Plan — the matching order and the precomputed
// per-vertex candidate constraints are planning decisions made by
// internal/plan, not here.
//
// One recursion serves two evaluation modes. Stream enumerates embeddings
// one by one, generating the Cartesian product of satellite candidate
// sets lazily (GenEmb). Count returns the number of embeddings, exploiting
// the factorized representation: a core solution with satellite candidate
// sets of sizes n1..nk contributes n1·…·nk embeddings without
// materializing them.
//
// A run stops when the search is exhausted, when yield or Options.Limit
// ends it, or when Options.Ctx is done. The context is the one stop
// signal: a timeout is a context deadline, and client disconnects,
// operator kills and the resource guard are context cancellations. The
// search polls it every few hundred steps, at the same point where it
// flushes the resource meter. Every search event is counted once, in a
// plain matcher field; Options.Stats and Options.Meter are filled from
// those fields.
package engine

import (
	"context"
	"math"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/otil"
	"repro/internal/plan"
	"repro/internal/query"
)

// Options control a matching run.
type Options struct {
	// Limit stops the enumeration after this many embeddings (0 = all).
	Limit int
	// Ctx, when non-nil, aborts the search when the context is done. It
	// is the run's one stop signal: a timeout (the paper's experiments
	// use a 60-second per-query constraint) is a context deadline, and a
	// server cancels through it when its client disconnects. The run then
	// returns ctx.Err().
	Ctx context.Context
	// Stats, when non-nil, receives the run's search counters when the
	// run ends.
	Stats *Stats
	// Meter, when non-nil, receives live resource accounting: the match
	// loop counts in plain matcher fields and hands the meter their
	// growth at the context-poll cadence (and at the end of the run), so
	// concurrent /debug/queries scrapes see fresh numbers without an
	// atomic op per step.
	Meter *obs.ResourceMeter
}

// Stats reports search effort counters.
type Stats struct {
	// The search counters accumulate across runs.
	obs.EngineCounters
	// Levels records the actual candidate frontier observed at every
	// core-vertex matching level of the plan — the measured counterpart of
	// the planner's estimates. Unlike the search counters, Levels is
	// replaced by each run's record and so always describes the last run.
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

// pollMask throttles context polls and meter flushes to one per this
// many steps.
const pollMask = 255

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
	done     <-chan struct{} // Ctx.Done(), nil without a context
	ctx      context.Context
	stats    *Stats
	meter    *obs.ResourceMeter
	levelIdx []int // per-component offsets into levels

	// The run's counters, each bumped once per event. opts.Stats receives
	// the search counters when the run ends; the meter receives the
	// effort counted since its last flush at every poll.
	levels     []LevelStats // per core level: candidates and visits
	level      int          // progress: 1 + index of the level computed last
	initCands  int
	recursions int
	satProbes  int
	effort     effort

	count    uint64 // Count mode: embeddings of the current component
	yielded  uint64 // embeddings yielded (Stream) or counted (Count)
	counting bool   // Count mode: core leaves tally instead of enumerating
	overlay  bool   // reader serves through a non-empty mutation overlay
	stopped  bool   // yield refused, limit reached or context done
	err      error  // the context's error, when it stopped the search
}

// effort is the part of the counters the resource meter reports, counted
// since the last flush.
type effort struct {
	cands  uint64 // candidate-set entries generated
	visits uint64 // candidate vertices tried: one per poll step
	inters uint64 // sorted-list intersections
	probes uint64 // index probes
}

// flushMeter hands the meter the effort counted since the last flush and
// the current progress, then starts the effort count afresh. Called from
// the throttled poll and at the end of the run, so the hot loop stays
// free of atomic traffic. Probes reach the meter only when they went
// through a non-empty overlay.
func (m *matcher) flushMeter() {
	if m.meter == nil {
		return
	}
	e := m.effort
	if !m.overlay {
		e.probes = 0
	}
	m.meter.FlushEngine(e.cands, e.visits, e.inters, e.probes)
	m.meter.SetProgress(m.level, len(m.levels))
	m.effort = effort{}
}

// poll counts one search step and reports whether the search must stop.
// Every pollMask+1 steps it flushes the meter and polls the run's
// context; the channel poll is the only stop check that is not a plain
// field read.
//
//amber:hotloop poll
func (m *matcher) poll() bool {
	m.effort.visits++
	if m.effort.visits&pollMask != 0 {
		return false
	}
	m.flushMeter()
	select {
	case <-m.done:
		m.stopped, m.err = true, m.ctx.Err()
	default:
	}
	return m.stopped
}

// finish ends a run that got past prepare: it flushes the meter and adds
// the run's counters to opts.Stats.
func (m *matcher) finish() {
	m.flushMeter()
	if st := m.stats; st != nil {
		st.Add(obs.EngineCounters{InitCandidates: m.initCands, Recursions: m.recursions, SatProbes: m.satProbes, Embeddings: m.yielded})
		st.Levels = m.levels
	}
}

// Stream enumerates the homomorphic embeddings of plan p in g, invoking
// yield with the assignment slice (indexed by query.VertexID; the slice is
// reused between calls — copy it to retain). Enumeration stops when yield
// returns false. It returns the context's error if opts.Ctx ended the run.
func Stream(r index.Reader, p *plan.Plan, opts Options, yield func([]dict.VertexID) bool) error {
	m, err := prepare(r, p, opts)
	if m == nil {
		return err
	}
	defer m.finish()
	m.yield = yield
	if len(m.q.Vars) == 0 {
		// Fully ground query whose checks passed: one empty embedding.
		m.emit()
		return nil
	}
	m.matchComponent(0)
	return m.err
}

// Count returns the number of embeddings of plan p in g, using the
// factorized satellite representation. When opts.Limit > 0 the returned
// count is capped at the limit.
func Count(r index.Reader, p *plan.Plan, opts Options) (uint64, error) {
	m, err := prepare(r, p, opts)
	if m == nil {
		return 0, err
	}
	defer m.finish()
	if len(m.q.Vars) == 0 {
		m.yielded = 1
		return 1, nil
	}
	// Components share no query vertex, so the whole count is the product
	// of the per-component counts: each component's search runs alone,
	// its core leaves tallying instead of descending into the next one.
	m.counting = true
	total := uint64(1)
	for ci := range p.Components {
		m.count = 0
		m.matchComponent(ci)
		if m.err != nil {
			return 0, m.err
		}
		total = mulSat(total, m.count)
		if total == 0 {
			break
		}
	}
	if opts.Limit > 0 && total > uint64(opts.Limit) {
		total = uint64(opts.Limit)
	}
	m.yielded = total
	return total, nil
}

// prepare checks the run's context and the plan's zero-result verdict
// and allocates the per-run state. The Algorithm 1 candidate sets and
// ground checks were already computed at plan time (internal/plan), so
// repeated executions of a cached plan skip them entirely. A nil matcher
// means the run ends before it starts: with the context's error, or with
// zero results.
func prepare(r index.Reader, p *plan.Plan, opts Options) (*matcher, error) {
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if p.Empty {
		return nil, nil
	}
	m := &matcher{
		r: r, p: p, q: p.Query,
		limit: opts.Limit,
		stats: opts.Stats,
		meter: opts.Meter,
	}
	if opts.Ctx != nil {
		m.ctx, m.done = opts.Ctx, opts.Ctx.Done()
	}
	if m.meter != nil {
		// Overlay detection: the delta view's Reader exposes Empty; a
		// frozen GraphReader does not (every probe is a base probe).
		if ov, ok := r.(interface{ Empty() bool }); ok && !ov.Empty() {
			m.overlay = true
		}
	}
	total := 0
	m.levelIdx = make([]int, len(p.Components))
	for ci := range p.Components {
		m.levelIdx[ci] = total
		total += len(p.Components[ci].Core)
	}
	m.levels = make([]LevelStats, total)
	for ci := range p.Components {
		for pos, u := range p.Components[ci].Core {
			m.levels[m.levelIdx[ci]+pos] = LevelStats{Component: ci, Pos: pos, Vertex: u}
		}
	}
	n := len(m.q.Vars)
	m.asg = make([]dict.VertexID, n)
	m.satSets = make([][]dict.VertexID, n)
	m.litBuf = make([][]dict.VertexID, n)
	m.matched = make([]bool, n)
	m.initCand = make([][]dict.VertexID, len(p.Components))
	m.initDone = make([]bool, len(p.Components))
	return m, nil
}

// recordLevel counts one computation of a core level's candidate set.
//
//amber:hotloop
func (m *matcher) recordLevel(ci, pos, n int) {
	m.level = m.levelIdx[ci] + pos + 1
	l := &m.levels[m.level-1]
	l.Candidates += uint64(n)
	l.Visits++
	m.effort.cands += uint64(n)
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
	m.effort.probes++
	return m.r.HasEdgeTypes(v, v, st)
}

// restrict intersects cand with u's fixed candidates (if any) and filters
// self-loops. cand must be sorted; the result is sorted.
//
//amber:hotloop
func (m *matcher) restrict(u query.VertexID, cand []dict.VertexID) []dict.VertexID {
	if m.p.IsFixed[int(u)] {
		cand = otil.IntersectSorted(cand, m.p.Fixed[int(u)])
		m.effort.inters++
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
	m.effort.probes++
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
		m.initCands += len(cand)
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
	m.satProbes++
	if lit := m.q.Vars[us].Lit; lit != nil {
		return m.litCandidates(us, lit, vc)
	}
	toSat, fromSat := m.q.EdgesBetween(uc, us)
	var cand []dict.VertexID
	have := false
	if len(toSat) > 0 { // edge uc → us: probe vc's outgoing side
		m.effort.probes++
		cand = m.r.Neighbors(vc, index.Outgoing, toSat)
		have = true
	}
	if len(fromSat) > 0 { // edge us → uc: probe vc's incoming side
		m.effort.probes++
		nb := m.r.Neighbors(vc, index.Incoming, fromSat)
		if have {
			cand = otil.IntersectSorted(cand, nb)
			m.effort.inters++
		} else {
			cand = nb
		}
	}
	return m.restrict(us, cand)
}

// litCandidates computes a literal satellite's candidate set under the
// subject match vc (plan.LitCandidates), counting its probes. It is built
// in us's scratch buffer: a satellite's set is dead once its core vertex
// moves to the next candidate.
//
//amber:hotloop
func (m *matcher) litCandidates(us query.VertexID, lit *query.LitSat, vc dict.VertexID) []dict.VertexID {
	if len(lit.Types) > 0 {
		m.effort.probes++
	}
	m.effort.probes++
	m.effort.inters++
	return plan.LitCandidates(m.r, lit, vc, &m.litBuf[us])
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
		m.effort.cands += uint64(len(cand))
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
			m.effort.inters++
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
		m.effort.probes++
		if !add(m.r.Neighbors(vn, index.Incoming, e.Types)) {
			return nil
		}
	}
	for _, e := range v.In { // e.To → unxt
		if !m.matched[e.To] {
			continue
		}
		vn := m.asg[e.To]
		m.effort.probes++
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

// matchComponent runs AMbER-Algo (Algorithm 3) for component ci and, on
// completion of all components, emits embeddings. In Count mode it
// searches component ci alone.
//
//amber:hotloop
func (m *matcher) matchComponent(ci int) {
	if m.stopped {
		return
	}
	if ci == len(m.p.Components) {
		m.emit()
		return
	}
	comp := &m.p.Components[ci]
	uinit := comp.Core[0]
	for _, vinit := range m.initialCandidates(ci) {
		if m.stopped || m.poll() {
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

// homomorphicMatch is Algorithm 4: extend the match to core vertex
// comp.Core[pos]. Stream and Count share it; they differ only at the
// leaf, once per core solution.
//
//amber:hotloop
func (m *matcher) homomorphicMatch(ci int, comp *plan.ComponentPlan, pos int) {
	if m.stopped || m.poll() {
		return
	}
	m.recursions++
	if pos == len(comp.Core) {
		// All cores matched. Counting adds the product of the satellite
		// set sizes without materializing it; streaming expands the
		// satellites, then moves to the next component.
		sats := comp.AllSatellites()
		if m.counting {
			prod := uint64(1)
			for _, us := range sats {
				prod = mulSat(prod, uint64(len(m.satSets[us])))
			}
			m.count = addSat(m.count, prod)
			return
		}
		m.enumerateSatellites(ci, sats, 0)
		return
	}
	unxt := comp.Core[pos]
	cand := m.coreCandidates(unxt)
	m.recordLevel(ci, pos, len(cand))
	for _, vnxt := range cand {
		if m.stopped {
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
	if m.stopped {
		return
	}
	if k == len(sats) {
		m.matchComponent(ci + 1)
		return
	}
	us := sats[k]
	for _, v := range m.satSets[us] {
		if m.stopped || m.poll() {
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
	if m.yield != nil && !m.yield(m.asg) {
		m.stopped = true
		return
	}
	if m.limit > 0 && m.yielded >= uint64(m.limit) {
		m.stopped = true
	}
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
