package triplestore

import (
	"errors"
	"math"
	"time"

	"repro/internal/sparql"
)

// ErrDeadlineExceeded is returned when the evaluation deadline passes.
var ErrDeadlineExceeded = errors.New("triplestore: deadline exceeded")

// Options control query evaluation.
type Options struct {
	// Limit caps the number of solutions (0 = all).
	Limit int
	// Deadline aborts evaluation when passed (zero = none).
	Deadline time.Time
}

// epattern is a dictionary-encoded triple pattern. Negative components are
// variables, identified by varIDs below.
type epattern struct {
	s, p, o int64 // ≥ 0: constant id; < 0: variable reference (see vref)
}

// vref packs variable ids into negative int64s.
func vref(v int) int64   { return -int64(v) - 1 }
func isVar(x int64) bool { return x < 0 }
func varOf(x int64) int  { return int(-x - 1) }

// compiled is a query compiled against the store's dictionaries.
type compiled struct {
	patterns []epattern
	order    []int // evaluation order
	varNames []string
	unsat    bool
}

// Compile translates a parsed SPARQL query. Constants missing from the
// dictionaries mark the query unsatisfiable.
func (s *Store) Compile(q *sparql.Query) *compiled {
	c := &compiled{}
	varID := map[string]int{}
	getVar := func(name string) int {
		if id, ok := varID[name]; ok {
			return id
		}
		id := len(c.varNames)
		varID[name] = id
		c.varNames = append(c.varNames, name)
		return id
	}
	for _, p := range q.Patterns {
		var ep epattern
		switch p.S.Kind {
		case sparql.Var:
			ep.s = vref(getVar(p.S.Value))
		default:
			id, ok := s.res.lookup(p.S.Value)
			if !ok {
				c.unsat = true
			}
			ep.s = int64(id)
		}
		pid, ok := s.preds.lookup(p.P.Value)
		if !ok {
			c.unsat = true
		}
		ep.p = int64(pid)
		switch p.O.Kind {
		case sparql.Var:
			ep.o = vref(getVar(p.O.Value))
		case sparql.Literal:
			id, ok := s.lits.lookup(p.O.Value)
			if !ok {
				c.unsat = true
			}
			ep.o = int64(litOID(id))
		default:
			id, ok := s.res.lookup(p.O.Value)
			if !ok {
				c.unsat = true
			}
			ep.o = int64(resOID(id))
		}
		c.patterns = append(c.patterns, ep)
	}
	if !c.unsat {
		c.order = s.orderPatterns(c)
	}
	return c
}

// orderPatterns performs the static selectivity-based join ordering:
// repeatedly pick the cheapest pattern (by index-range estimate, with bound
// variables treated as constants pessimistically as unbound), preferring
// patterns connected to already-chosen ones — the standard exploitation of
// query structure for join ordering.
func (s *Store) orderPatterns(c *compiled) []int {
	n := len(c.patterns)
	chosen := make([]bool, n)
	bound := map[int]bool{}
	var order []int
	est := func(i int) int {
		p := c.patterns[i]
		sb, pb, ob := int64(-1), int64(-1), int64(-1)
		if !isVar(p.s) {
			sb = p.s
		}
		if !isVar(p.p) {
			pb = p.p
		}
		if !isVar(p.o) {
			ob = p.o
		}
		// A bound variable narrows the range like a constant; estimate with
		// selectivity bonus rather than a concrete value.
		e := s.estimate(sb, pb, ob)
		if isVar(p.s) && bound[varOf(p.s)] {
			e = e/8 + 1
		}
		if isVar(p.o) && bound[varOf(p.o)] {
			e = e/8 + 1
		}
		return e
	}
	connected := func(i int) bool {
		p := c.patterns[i]
		return (isVar(p.s) && bound[varOf(p.s)]) || (isVar(p.o) && bound[varOf(p.o)])
	}
	for len(order) < n {
		best, bestCost := -1, math.MaxInt
		bestConn := false
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			conn := connected(i) || len(order) == 0
			cost := est(i)
			// Prefer connected patterns; among equals, the cheapest.
			if best < 0 || (conn && !bestConn) || (conn == bestConn && cost < bestCost) {
				best, bestCost, bestConn = i, cost, conn
			}
		}
		order = append(order, best)
		chosen[best] = true
		p := c.patterns[best]
		if isVar(p.s) {
			bound[varOf(p.s)] = true
		}
		if isVar(p.o) {
			bound[varOf(p.o)] = true
		}
	}
	return order
}

// Count evaluates the compiled query, returning the number of solutions
// (assignments to all variables, IRIs only).
func (s *Store) Count(c *compiled, opts Options) (uint64, error) {
	var n uint64
	err := s.Stream(c, opts, func([]uint32) bool {
		n++
		return true
	})
	return n, err
}

// Stream enumerates solutions, invoking yield with the variable assignment
// (resource ids indexed by variable id; the slice is reused). Enumeration
// stops when yield returns false.
func (s *Store) Stream(c *compiled, opts Options, yield func([]uint32) bool) error {
	if c.unsat {
		return nil
	}
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return ErrDeadlineExceeded
	}
	e := &evaluator{
		s: s, c: c,
		asg:      make([]uint32, len(c.varNames)),
		isSet:    make([]bool, len(c.varNames)),
		yield:    yield,
		limit:    opts.Limit,
		deadline: opts.Deadline,
	}
	e.run(0)
	if e.expired {
		return ErrDeadlineExceeded
	}
	return nil
}

type evaluator struct {
	s     *Store
	c     *compiled
	asg   []uint32
	isSet []bool

	yield    func([]uint32) bool
	limit    int
	deadline time.Time

	steps   int
	emitted int
	stopped bool
	expired bool
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

// run evaluates pattern e.c.order[k] under the current bindings.
func (e *evaluator) run(k int) {
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
	p := e.c.patterns[e.c.order[k]]
	sb, pb, ob := int64(-1), p.p, int64(-1)
	sVar, oVar := -1, -1
	if isVar(p.s) {
		if v := varOf(p.s); e.isSet[v] {
			sb = int64(e.asg[v])
		} else {
			sVar = v
		}
	} else {
		sb = p.s
	}
	if isVar(p.o) {
		if v := varOf(p.o); e.isSet[v] {
			ob = int64(resOID(e.asg[v]))
		} else {
			oVar = v
		}
	} else {
		ob = p.o
	}
	e.s.scan(sb, pb, ob, func(t enc) bool {
		if e.checkDeadline() {
			return false
		}
		// Variables bind IRIs only (AMbER's multigraph semantics).
		if oVar >= 0 && t.O.isLit() {
			return true
		}
		// Same-variable subject and object must coincide.
		if sVar >= 0 && sVar == oVar && oid(t.S) != oid(t.O.id()) {
			return true
		}
		if sVar >= 0 {
			e.asg[sVar], e.isSet[sVar] = t.S, true
		}
		if oVar >= 0 {
			e.asg[oVar], e.isSet[oVar] = t.O.id(), true
		}
		e.run(k + 1)
		if sVar >= 0 {
			e.isSet[sVar] = false
		}
		if oVar >= 0 {
			e.isSet[oVar] = false
		}
		return !e.stopped && !e.expired
	})
}

// ResourceName resolves a resource id back to its IRI.
func (s *Store) ResourceName(id uint32) string { return s.res.values[id] }

// VarNames exposes the compiled query's variable order.
func (c *compiled) VarNames() []string { return c.varNames }

// Unsat reports whether compilation found a constant absent from the data.
func (c *compiled) Unsat() bool { return c.unsat }
