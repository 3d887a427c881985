// Package plan turns a decomposed query multigraph (internal/query) into
// an executable matching plan: the core-vertex matching order per
// component, the precomputed per-vertex candidate constraints (Algorithm 1
// of the paper, hoisted out of the engine so prepared queries pay for it
// once), and the ground-constraint verdict. Ordering used to be a
// parse-time side effect inside the query layer; making it a first-class,
// swappable planning step lets the engine consume data-aware orders.
//
// Two planners are provided:
//
//   - Heuristic reproduces the paper's static Section 5.3 ordering: core
//     vertices maximize (r1, r2) — satellite count, then incident
//     edge-type count — extending a connected prefix. It is blind to the
//     data distribution.
//   - CostBased estimates every core vertex's candidate-set size from the
//     index ensemble (attribute inverted-list lengths, exact
//     neighbourhood-trie probes for constant-IRI constraints, and
//     per-edge-type cardinalities) and greedily picks the connected
//     vertex with the smallest estimated frontier. Ties and missing
//     statistics fall back to the paper heuristic, so the cost-based
//     order never degenerates below it.
//
// Both planners produce identical answer sets — order affects speed,
// never results — which the engine's equivalence tests assert.
package plan

import (
	"math"
	"slices"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/query"
)

// ComponentPlan is the executable form of one connected component: the
// matching order over its core vertices plus the satellite attachment.
type ComponentPlan struct {
	// Core is U_c^ord: the core vertices in matching order. Core[0] is the
	// initial vertex resolved through the signature index.
	Core []query.VertexID
	// Satellites is shared with the query component: core vertex → its
	// attached degree-1 satellite vertices, sorted.
	Satellites map[query.VertexID][]query.VertexID
	// Estimates is parallel to Core: the planner's estimated candidate-set
	// size for each core vertex at the point it is matched. The heuristic
	// planner records standalone estimates (it does not use them to
	// order); the cost-based planner records the frontier estimates that
	// drove its choices.
	Estimates []float64

	// allSats is the satellite enumeration order, precomputed once at
	// plan time because the engine asks for it per complete core match.
	allSats []query.VertexID
}

// AllSatellites returns the component's satellite vertices in matching
// order (each core's satellites are themselves sorted): the stable
// enumeration order for embedding generation. The returned slice is
// shared — callers must not modify it.
func (c *ComponentPlan) AllSatellites() []query.VertexID { return c.allSats }

// Plan is everything the matching engine needs beyond the data graph and
// index: the query multigraph, the per-component matching orders, and the
// precomputed per-vertex candidate constraints. A Plan is tied to the
// index it was built against and is immutable and safe for concurrent use.
type Plan struct {
	// Query is the underlying query multigraph.
	Query *query.Graph
	// Planner names the implementation that produced the plan.
	Planner string
	// Components holds one plan per connected component, aligned with
	// Query.Components.
	Components []ComponentPlan
	// Fixed[u] is the precomputed Algorithm 1 candidate list for query
	// vertex u (attribute-index candidates intersected with constant-IRI
	// neighbourhood probes); IsFixed[u] reports whether u carries such
	// constraints at all.
	Fixed   [][]dict.VertexID
	IsFixed []bool
	// Empty marks a plan that provably yields zero embeddings (an unsat
	// query, a failed ground check, or an empty fixed candidate set);
	// EmptyReason explains the first cause found.
	Empty       bool
	EmptyReason string
}

// Planner computes a matching plan for a query graph against an index.
type Planner interface {
	// Name identifies the planner in Explain output and benchmarks.
	Name() string
	// Plan orders every component and precomputes candidate constraints
	// against the given probe surface (a frozen ensemble or an overlay).
	Plan(q *query.Graph, r index.Reader) *Plan
}

// Default returns the planner used when no explicit choice is made: the
// cost-based one.
func Default() Planner { return CostBased() }

// For plans q with the default planner.
func For(q *query.Graph, r index.Reader) *Plan { return Default().Plan(q, r) }

// CostBased returns the statistics-driven planner.
func CostBased() Planner { return costBased{} }

// Heuristic returns the paper's static Section 5.3 planner.
func Heuristic() Planner { return heuristic{} }

// ByName resolves a planner from its flag name ("cost" or "heuristic").
func ByName(name string) (Planner, bool) {
	switch name {
	case "cost", "cost-based", "":
		return CostBased(), true
	case "heuristic", "paper":
		return Heuristic(), true
	}
	return nil, false
}

// ---- shared scaffolding ------------------------------------------------

// scaffold carries the state both planners share: fixed candidate sets and
// the tie-breaking heuristic ranks.
type scaffold struct {
	q *query.Graph
	r index.Reader
	p *Plan
}

// build runs the planner-independent part (ground checks, Algorithm 1
// candidate sets) and then orders each component with the given strategy.
func build(name string, q *query.Graph, r index.Reader,
	order func(*scaffold, *query.Component) ([]query.VertexID, []float64)) *Plan {
	p := &Plan{Query: q, Planner: name}
	s := &scaffold{q: q, r: r, p: p}
	if q.Unsat {
		p.Empty, p.EmptyReason = true, q.UnsatReason
	}
	s.checkGround()
	s.computeFixed()
	for ci := range q.Components {
		qc := &q.Components[ci]
		core, ests := order(s, qc)
		var allSats []query.VertexID
		for _, uc := range core {
			allSats = append(allSats, qc.Satellites[uc]...)
		}
		p.Components = append(p.Components, ComponentPlan{
			Core:       core,
			Satellites: qc.Satellites,
			Estimates:  ests,
			allSats:    allSats,
		})
	}
	return p
}

// markEmpty records the first zero-result cause.
func (p *Plan) markEmpty(reason string) {
	if !p.Empty {
		p.Empty, p.EmptyReason = true, reason
	}
}

// checkGround validates the variable-free constraints through the index:
// a ground edge holds iff the target appears in the source's outgoing
// neighbourhood probe; a ground attribute iff the vertex appears in every
// attribute's inverted list.
func (s *scaffold) checkGround() {
	for _, ge := range s.q.GroundEdges {
		if !otil.ContainsSorted(s.r.Neighbors(ge.From, index.Outgoing, ge.Types), ge.To) {
			s.p.markEmpty("ground edge not in data")
			return
		}
	}
	for _, ga := range s.q.GroundAttrs {
		if !s.r.HasAttrs(ga.V, ga.Attrs) {
			s.p.markEmpty("ground attribute not in data")
			return
		}
	}
}

// computeFixed is Algorithm 1 hoisted to plan time: the candidates implied
// by vertex attributes (index A) and constant-IRI neighbours (index N).
// The lists depend only on the query and the immutable index, so a cached
// plan amortizes them across executions.
func (s *scaffold) computeFixed() {
	n := len(s.q.Vars)
	s.p.Fixed = make([][]dict.VertexID, n)
	s.p.IsFixed = make([]bool, n)
	for u := range s.q.Vars {
		v := &s.q.Vars[u]
		if lit := v.Lit; lit != nil && lit.SubjectVar < 0 {
			// A literal satellite with a constant subject forms its own
			// single-vertex component; its exact candidate list — p-edge
			// neighbours plus encoded <p, ·> attributes of the constant —
			// is computable right here.
			s.p.IsFixed[u] = true
			s.p.Fixed[u] = LitCandidates(s.r, lit, lit.SubjectVertex, new([]dict.VertexID))
			if len(s.p.Fixed[u]) == 0 {
				s.p.markEmpty("empty candidate set for ?" + v.Name)
			}
			continue
		}
		cand, have := s.litSupport(v)
		if len(v.Attrs) == 0 && len(v.IRIs) == 0 && !have {
			continue
		}
		s.p.IsFixed[u] = true
		if len(v.Attrs) > 0 {
			ac := s.r.AttrCandidates(v.Attrs)
			if have {
				cand = otil.IntersectSorted(cand, ac)
			} else {
				cand, have = ac, true
			}
		}
		for _, c := range v.IRIs {
			nb := s.r.Neighbors(c.DataVertex, c.Dir, c.Types)
			if have {
				cand = otil.IntersectSorted(cand, nb)
			} else {
				cand, have = nb, true
			}
			if len(cand) == 0 {
				break
			}
		}
		s.p.Fixed[u] = cand
		if len(cand) == 0 {
			s.p.markEmpty("empty candidate set for ?" + v.Name)
		}
	}
}

// LitCandidates computes a literal satellite's candidate set for subject
// data vertex v: v's p-neighbours (when p is an edge type) followed by its
// matching <p, ·> attributes as encoded literal bindings. Both halves are
// sorted and every encoded binding exceeds every vertex id, so the
// concatenation is sorted. It is built in *scratch, which keeps the grown
// storage; when no attribute matches, the result is the Neighbors list
// itself, read-only as the Reader contract makes it.
func LitCandidates(r index.Reader, lit *query.LitSat, v dict.VertexID, scratch *[]dict.VertexID) []dict.VertexID {
	var verts []dict.VertexID
	if len(lit.Types) > 0 {
		verts = r.Neighbors(v, index.Outgoing, lit.Types)
	}
	attrs := otil.IntersectSorted(r.VertexAttrs(v), lit.Attrs)
	if len(attrs) == 0 {
		return verts
	}
	out := append((*scratch)[:0], verts...)
	for _, a := range attrs {
		out = append(out, dict.EncodeAttrBinding(a))
	}
	*scratch = out
	return out
}

// litSupport bounds a vertex's candidates through its literal
// satellites: a match must satisfy every satellite, i.e. carry a <p, ·>
// attribute or (when p is also an edge type) an outgoing p-edge. The
// union of p's inverted attribute lists with the signature-index probe
// for a single outgoing p multi-edge is therefore a sound candidate
// superset (the signature probe over-approximates p-edge sources per
// Lemma 1). Without it, a subject whose only pattern is the literal one
// would degrade to a full vertex scan — its own synopsis is empty.
func (s *scaffold) litSupport(v *query.Vertex) (cand []dict.VertexID, have bool) {
	for _, uo := range v.LitSats {
		lit := s.q.Vars[uo].Lit
		var union []dict.VertexID
		for _, a := range lit.Attrs {
			union = append(union, s.r.AttrCandidates([]dict.AttrID{a})...)
		}
		if len(lit.Types) > 0 {
			syn := multigraph.SynopsisFromMultiEdges(nil, [][]dict.EdgeType{lit.Types}).AsQuery()
			union = append(union, s.r.SignatureCandidates(syn)...)
		}
		slices.Sort(union)
		union = slices.Compact(union)
		if have {
			cand = otil.IntersectSorted(cand, union)
		} else {
			cand, have = union, true
		}
		if len(cand) == 0 {
			return cand, true
		}
	}
	return cand, have
}

// rank1 is the paper's r1(u): the number of satellite vertices attached to
// u (each satellite has a unique core neighbour, so attachment count and
// satellite-neighbour count coincide).
func rank1(qc *query.Component, u query.VertexID) int { return len(qc.Satellites[u]) }

// better is the paper's Section 5.3 preference: maximize r1, then r2, then
// break ties on the smaller vertex id. Used directly by the heuristic
// planner and as the tie-breaker of the cost-based one.
func (s *scaffold) better(qc *query.Component, a, b query.VertexID) bool {
	ra1, rb1 := rank1(qc, a), rank1(qc, b)
	if ra1 != rb1 {
		return ra1 > rb1
	}
	ra2, rb2 := s.q.Rank2(a), s.q.Rank2(b)
	if ra2 != rb2 {
		return ra2 > rb2
	}
	return a < b
}

// orderGreedy runs the shared connected-prefix greedy loop: pick selects
// the preferred vertex among the admissible candidates (all core vertices
// for the first pick, prefix-connected ones afterwards). inPrefix is the
// membership set of the already-ordered prefix, maintained incrementally.
func (s *scaffold) orderGreedy(qc *query.Component,
	pick func(cands []query.VertexID, inPrefix map[query.VertexID]bool) (query.VertexID, float64)) ([]query.VertexID, []float64) {
	core := qc.Core
	ordered := make([]query.VertexID, 0, len(core))
	ests := make([]float64, 0, len(core))
	inPrefix := make(map[query.VertexID]bool, len(core))
	connected := make(map[query.VertexID]bool, len(core))
	for len(ordered) < len(core) {
		var cands []query.VertexID
		for _, u := range core {
			if inPrefix[u] {
				continue
			}
			if len(ordered) > 0 && !connected[u] {
				continue
			}
			cands = append(cands, u)
		}
		if len(cands) == 0 {
			// The core is disconnected through satellites only — cannot
			// happen for var-var components, but guard by relaxing
			// connectivity.
			for _, u := range core {
				if !inPrefix[u] {
					cands = append(cands, u)
				}
			}
		}
		best, est := pick(cands, inPrefix)
		ordered = append(ordered, best)
		ests = append(ests, est)
		inPrefix[best] = true
		for _, w := range s.q.VarNeighbors(best) {
			connected[w] = true
		}
	}
	return ordered, ests
}

// ---- heuristic planner -------------------------------------------------

type heuristic struct{}

func (heuristic) Name() string { return "heuristic" }

// Plan reproduces the paper's VertexOrdering exactly: the first vertex
// maximizes (r1, r2); each subsequent vertex is connected to the ordered
// prefix and maximizes (r1, r2) among the connected candidates.
func (h heuristic) Plan(q *query.Graph, r index.Reader) *Plan {
	return build(h.Name(), q, r, func(s *scaffold, qc *query.Component) ([]query.VertexID, []float64) {
		return s.orderGreedy(qc, func(cands []query.VertexID, _ map[query.VertexID]bool) (query.VertexID, float64) {
			best := cands[0]
			for _, u := range cands[1:] {
				if s.better(qc, u, best) {
					best = u
				}
			}
			return best, s.standalone(best)
		})
	})
}

// ---- cost-based planner ------------------------------------------------

type costBased struct{}

func (costBased) Name() string { return "cost" }

// Plan orders each component by greedy smallest-estimated-frontier: the
// initial vertex minimizes the standalone candidate estimate; every later
// vertex minimizes the estimated candidate count after the neighbourhood
// probes from its already-ordered neighbours. Exact ties (and absent
// statistics) defer to the paper heuristic.
func (c costBased) Plan(q *query.Graph, r index.Reader) *Plan {
	if r.Cardinalities() == nil {
		// No statistics: the estimates would all be +Inf and the order
		// pure tie-breaking — make the fallback explicit instead.
		p := heuristic{}.Plan(q, r)
		p.Planner = c.Name()
		return p
	}
	return build(c.Name(), q, r, func(s *scaffold, qc *query.Component) ([]query.VertexID, []float64) {
		return s.orderGreedy(qc, func(cands []query.VertexID, inPrefix map[query.VertexID]bool) (query.VertexID, float64) {
			// Find the minimum frontier estimate, then resolve near-ties
			// (within 10%) with the paper heuristic: when the statistics
			// cannot separate candidates, its satellite-first preference
			// prunes better than an arbitrary pick.
			ests := make([]float64, len(cands))
			minEst := math.Inf(1)
			for i, u := range cands {
				ests[i] = s.frontier(u, inPrefix)
				if ests[i] < minEst {
					minEst = ests[i]
				}
			}
			tie := minEst*1.1 + 0.5
			best, bestEst := query.VertexID(-1), 0.0
			for i, u := range cands {
				if ests[i] > tie {
					continue
				}
				if best < 0 || s.better(qc, u, best) {
					best, bestEst = u, ests[i]
				}
			}
			return best, bestEst
		})
	})
}

// standalone estimates u's candidate-set size in isolation: exact for
// vertices with fixed constraints (the list is already materialized),
// otherwise bounded by the rarest incident edge type's vertex count.
func (s *scaffold) standalone(u query.VertexID) float64 {
	if s.p.IsFixed[u] {
		return float64(len(s.p.Fixed[u]))
	}
	card := s.r.Cardinalities()
	if card == nil {
		return math.Inf(1)
	}
	est := float64(card.NumVertices)
	v := &s.q.Vars[u]
	bound := func(dir index.Direction, types []dict.EdgeType) {
		for _, t := range types {
			if n := float64(card.VerticesWith(dir, t)); n < est {
				est = n
			}
		}
	}
	for _, e := range v.Out {
		bound(index.Outgoing, e.Types)
	}
	for _, e := range v.In {
		bound(index.Incoming, e.Types)
	}
	if len(v.SelfTypes) > 0 {
		bound(index.Outgoing, v.SelfTypes)
		bound(index.Incoming, v.SelfTypes)
	}
	return est
}

// frontier estimates u's candidate-set size at match time: its standalone
// estimate, tightened by the cheapest neighbourhood probe from any
// already-ordered neighbour (a probe at a bound vertex returns on average
// the per-type fanout, and probes are intersected, so the minimum is the
// controlling bound). inPrefix is the ordered prefix's membership set.
func (s *scaffold) frontier(u query.VertexID, inPrefix map[query.VertexID]bool) float64 {
	est := s.standalone(u)
	card := s.r.Cardinalities()
	if card == nil || len(inPrefix) == 0 {
		return est
	}
	v := &s.q.Vars[u]
	tighten := func(dir index.Direction, types []dict.EdgeType) {
		for _, t := range types {
			if f := card.Fanout(dir, t); f < est {
				est = f
			}
		}
	}
	for _, e := range v.Out { // edge u → w: probe w's incoming side
		if inPrefix[e.To] {
			tighten(index.Incoming, e.Types)
		}
	}
	for _, e := range v.In { // edge w → u: probe w's outgoing side
		if inPrefix[e.To] {
			tighten(index.Outgoing, e.Types)
		}
	}
	return est
}
