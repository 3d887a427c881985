// Package baseline implements the graph-based comparison system of the
// paper's evaluation: a filter-and-refine subgraph homomorphism matcher in
// the gStore / TurboHom++ architecture class. It operates on the plain RDF
// graph — literals are ordinary vertices, no multigraph compaction, no
// precomputed index structures — and matches queries by backtracking with
// an on-the-fly degree-signature filter for the initial variable and
// adjacency-driven refinement for the rest.
//
// Variables bind only IRIs, matching AMbER's multigraph semantics, so
// result counts are comparable across all three engines.
package baseline

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ErrDeadlineExceeded is returned when the evaluation deadline passes.
var ErrDeadlineExceeded = errors.New("baseline: deadline exceeded")

// Options control query evaluation.
type Options struct {
	Limit    int
	Deadline time.Time
}

type nodeID uint32

type edge struct {
	p  uint32
	to nodeID
}

// Graph is the plain (non-multigraph) RDF graph.
type Graph struct {
	nodes interner // literals mangled with a \x00 prefix
	isLit []bool
	preds interner
	out   [][]edge
	in    [][]edge
	seen  map[[3]uint64]struct{} // dedup
}

// interner is a plain string↔dense-id table. It is kept apart from
// internal/dict so that this reference evaluator shares no dictionary code
// with the engine it is compared against.
type interner struct {
	ids    map[string]uint32
	values []string
}

func (in *interner) intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]uint32)
	}
	id := uint32(len(in.values))
	in.ids[s] = id
	in.values = append(in.values, s)
	return id
}

func (in *interner) lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

const litMangle = "\x00L\x00"

// NewGraph returns an empty graph ready for Add.
func NewGraph() *Graph {
	return &Graph{seen: make(map[[3]uint64]struct{})}
}

func (g *Graph) node(key string, lit bool) nodeID {
	before := len(g.nodes.values)
	id := g.nodes.intern(key)
	if len(g.nodes.values) > before {
		g.isLit = append(g.isLit, lit)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
	return nodeID(id)
}

// Add ingests one RDF triple.
func (g *Graph) Add(t rdf.Triple) error {
	if !t.S.IsIRI() || !t.P.IsIRI() {
		return fmt.Errorf("baseline: subject and predicate must be IRIs: %v", t)
	}
	s := g.node(t.S.Value, false)
	p := g.preds.intern(t.P.Value)
	var o nodeID
	if t.O.IsLiteral() {
		o = g.node(litMangle+t.O.Value, true)
	} else {
		o = g.node(t.O.Value, false)
	}
	k := [3]uint64{uint64(s), uint64(p), uint64(o)}
	if _, dup := g.seen[k]; dup {
		return nil
	}
	g.seen[k] = struct{}{}
	g.out[s] = append(g.out[s], edge{p: p, to: o})
	g.in[o] = append(g.in[o], edge{p: p, to: s})
	return nil
}

// AddAll ingests a batch, stopping at the first error.
func (g *Graph) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := g.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// FromTriples builds a graph from a slice.
func FromTriples(ts []rdf.Triple) (*Graph, error) {
	g := NewGraph()
	if err := g.AddAll(ts); err != nil {
		return nil, err
	}
	return g, nil
}

// FromReader builds a graph from an N-Triples reader.
func FromReader(r io.Reader) (*Graph, error) {
	g := NewGraph()
	dec := rdf.NewDecoder(r)
	for {
		t, err := dec.Decode()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return nil, err
		}
		if err := g.Add(t); err != nil {
			return nil, err
		}
	}
}

// NumNodes reports the node count (resources + literal nodes).
func (g *Graph) NumNodes() int { return len(g.nodes.values) }

// NodeName resolves a node id to its IRI (or literal lexical form).
func (g *Graph) NodeName(id nodeID) string {
	name := g.nodes.values[id]
	if g.isLit[id] {
		return name[len(litMangle):]
	}
	return name
}

// ---- query compilation -------------------------------------------------

// constraint is one edge of the query graph seen from a variable.
type constraint struct {
	p   uint32
	out bool // true: var → other; false: other → var
	// exactly one of otherVar ≥ 0 or constNode ≥ 0 is set
	otherVar  int
	constNode int64
}

// compiled is a query compiled against the graph.
type compiled struct {
	varNames []string
	cons     [][]constraint // per variable
	ground   [][3]uint64    // fully constant patterns
	order    []int
	// degree-signature filter: required predicate counts per variable
	outSig []map[uint32]int
	inSig  []map[uint32]int
	unsat  bool
}

// VarNames exposes the variable order.
func (c *compiled) VarNames() []string { return c.varNames }

// Unsat reports whether compilation found a constant absent from the data.
func (c *compiled) Unsat() bool { return c.unsat }

// Compile translates a parsed SPARQL query.
func (g *Graph) Compile(q *sparql.Query) *compiled {
	c := &compiled{}
	varID := map[string]int{}
	getVar := func(name string) int {
		if id, ok := varID[name]; ok {
			return id
		}
		id := len(c.varNames)
		varID[name] = id
		c.varNames = append(c.varNames, name)
		c.cons = append(c.cons, nil)
		c.outSig = append(c.outSig, map[uint32]int{})
		c.inSig = append(c.inSig, map[uint32]int{})
		return id
	}
	lookupNode := func(key string) int64 {
		id, ok := g.nodes.lookup(key)
		if !ok {
			c.unsat = true
			return -1
		}
		return int64(id)
	}
	for _, p := range q.Patterns {
		pid, ok := g.preds.lookup(p.P.Value)
		if !ok {
			c.unsat = true
			continue
		}
		sVar, oVar := -1, -1
		var sConst, oConst int64 = -1, -1
		if p.S.Kind == sparql.Var {
			sVar = getVar(p.S.Value)
		} else {
			sConst = lookupNode(p.S.Value)
		}
		switch p.O.Kind {
		case sparql.Var:
			oVar = getVar(p.O.Value)
		case sparql.Literal:
			oConst = lookupNode(litMangle + p.O.Value)
		default:
			oConst = lookupNode(p.O.Value)
		}
		if c.unsat {
			continue
		}
		switch {
		// The signature filter records which (predicate, direction) pairs a
		// candidate must carry. Presence, not multiplicity: homomorphic
		// matching lets several query edges map onto one data edge.
		case sVar >= 0 && oVar >= 0:
			c.cons[sVar] = append(c.cons[sVar], constraint{p: pid, out: true, otherVar: oVar, constNode: -1})
			c.cons[oVar] = append(c.cons[oVar], constraint{p: pid, out: false, otherVar: sVar, constNode: -1})
			c.outSig[sVar][pid] = 1
			c.inSig[oVar][pid] = 1
		case sVar >= 0:
			c.cons[sVar] = append(c.cons[sVar], constraint{p: pid, out: true, otherVar: -1, constNode: oConst})
			c.outSig[sVar][pid] = 1
		case oVar >= 0:
			c.cons[oVar] = append(c.cons[oVar], constraint{p: pid, out: false, otherVar: -1, constNode: sConst})
			c.inSig[oVar][pid] = 1
		default:
			c.ground = append(c.ground, [3]uint64{uint64(sConst), uint64(pid), uint64(oConst)})
		}
	}
	if !c.unsat {
		c.order = orderVars(c)
	}
	return c
}

// orderVars picks the most-constrained variable first, then grows the order
// along connections.
func orderVars(c *compiled) []int {
	n := len(c.varNames)
	order := make([]int, 0, n)
	used := make([]bool, n)
	connected := make([]bool, n)
	score := func(v int) int { return len(c.cons[v]) }
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if best < 0 {
				best = v
				continue
			}
			bc, vc := connected[best] || len(order) == 0, connected[v] || len(order) == 0
			if (vc && !bc) || (vc == bc && score(v) > score(best)) {
				best = v
			}
		}
		order = append(order, best)
		used[best] = true
		for _, cn := range c.cons[best] {
			if cn.otherVar >= 0 {
				connected[cn.otherVar] = true
			}
		}
	}
	return order
}

// ---- evaluation ---------------------------------------------------------

type evaluator struct {
	g *Graph
	c *compiled

	asg   []nodeID
	isSet []bool

	yield    func([]nodeID) bool
	limit    int
	deadline time.Time

	steps   int
	emitted int
	stopped bool
	expired bool
}

// Count returns the number of homomorphic solutions.
func (g *Graph) Count(c *compiled, opts Options) (uint64, error) {
	var n uint64
	err := g.Stream(c, opts, func([]nodeID) bool {
		n++
		return true
	})
	return n, err
}

// Stream enumerates solutions; the assignment slice is reused across calls.
func (g *Graph) Stream(c *compiled, opts Options, yield func([]nodeID) bool) error {
	if c.unsat {
		return nil
	}
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return ErrDeadlineExceeded
	}
	for _, gr := range c.ground {
		if !g.hasTriple(nodeID(gr[0]), uint32(gr[1]), nodeID(gr[2])) {
			return nil
		}
	}
	e := &evaluator{
		g: g, c: c,
		asg:      make([]nodeID, len(c.varNames)),
		isSet:    make([]bool, len(c.varNames)),
		yield:    yield,
		limit:    opts.Limit,
		deadline: opts.Deadline,
	}
	e.match(0)
	if e.expired {
		return ErrDeadlineExceeded
	}
	return nil
}

func (g *Graph) hasTriple(s nodeID, p uint32, o nodeID) bool {
	for _, e := range g.out[s] {
		if e.p == p && e.to == o {
			return true
		}
	}
	return false
}

func (e *evaluator) checkDeadline() bool {
	if e.expired {
		return true
	}
	e.steps++
	if e.deadline.IsZero() || e.steps&255 != 0 {
		return false
	}
	if time.Now().After(e.deadline) {
		e.expired = true
	}
	return e.expired
}

// signatureOK is the filter step: v must carry at least the required count
// of each predicate in each direction (computed on the fly — the baseline
// has no precomputed signature index).
func (e *evaluator) signatureOK(qv int, v nodeID) bool {
	for p, need := range e.c.outSig[qv] {
		have := 0
		for _, ed := range e.g.out[v] {
			if ed.p == p {
				have++
			}
		}
		if have < need {
			return false
		}
	}
	for p, need := range e.c.inSig[qv] {
		have := 0
		for _, ed := range e.g.in[v] {
			if ed.p == p {
				have++
			}
		}
		if have < need {
			return false
		}
	}
	return true
}

// consistent verifies every constraint of qv that is checkable now (bound
// neighbours and constants).
func (e *evaluator) consistent(qv int, v nodeID) bool {
	for _, cn := range e.c.cons[qv] {
		var other int64 = -1
		if cn.otherVar >= 0 {
			if cn.otherVar == qv {
				other = int64(v) // self loop
			} else if e.isSet[cn.otherVar] {
				other = int64(e.asg[cn.otherVar])
			} else {
				continue // deferred
			}
		} else {
			other = cn.constNode
		}
		if cn.out {
			if !e.g.hasTriple(v, cn.p, nodeID(other)) {
				return false
			}
		} else {
			if !e.g.hasTriple(nodeID(other), cn.p, v) {
				return false
			}
		}
	}
	return true
}

// candidates computes the candidate nodes for the k-th variable in order.
func (e *evaluator) candidates(qv int) []nodeID {
	// Refinement: if some neighbour is bound, only its adjacency qualifies.
	for _, cn := range e.c.cons[qv] {
		var anchor int64 = -1
		if cn.otherVar >= 0 && cn.otherVar != qv && e.isSet[cn.otherVar] {
			anchor = int64(e.asg[cn.otherVar])
		} else if cn.constNode >= 0 {
			anchor = cn.constNode
		}
		if anchor < 0 {
			continue
		}
		var out []nodeID
		if cn.out { // qv → anchor: scan anchor's in-list
			for _, ed := range e.g.in[anchor] {
				if ed.p == cn.p && !e.g.isLit[ed.to] {
					out = append(out, ed.to)
				}
			}
		} else {
			for _, ed := range e.g.out[anchor] {
				if ed.p == cn.p && !e.g.isLit[ed.to] {
					out = append(out, ed.to)
				}
			}
		}
		return dedupNodes(out)
	}
	// Filter: no anchor — scan all non-literal nodes through the signature.
	// The scan itself honours the deadline: on skewed graphs a single
	// signature pass over every hub can exceed the whole time budget.
	var out []nodeID
	for v := 0; v < e.g.NumNodes(); v++ {
		if e.checkDeadline() {
			return nil
		}
		if e.g.isLit[v] {
			continue
		}
		if e.signatureOK(qv, nodeID(v)) {
			out = append(out, nodeID(v))
		}
	}
	return out
}

func dedupNodes(ns []nodeID) []nodeID {
	if len(ns) < 2 {
		return ns
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := ns[:1]
	for _, v := range ns[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// match binds the k-th variable of the order.
func (e *evaluator) match(k int) {
	if e.stopped || e.expired {
		return
	}
	if k == len(e.c.order) {
		e.emitted++
		if e.yield != nil && !e.yield(e.asg) {
			e.stopped = true
		}
		if e.limit > 0 && e.emitted >= e.limit {
			e.stopped = true
		}
		return
	}
	qv := e.c.order[k]
	for _, v := range e.candidates(qv) {
		if e.stopped || e.checkDeadline() {
			return
		}
		if !e.consistent(qv, v) {
			continue
		}
		e.asg[qv], e.isSet[qv] = v, true
		e.match(k + 1)
		e.isSet[qv] = false
	}
}
