package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Solution is one embedding translated back to RDF terms: the projected
// variables' typed terms (IRI, blank node, or — for literal satellites —
// a literal with its datatype and language tag intact), positionally
// aligned with PreparedQuery.Projection. A variable that does not occur
// in the matched UNION branch is the zero Term (SPARQL's unbound).
type Solution []rdf.Term

// BindingTerm decodes one engine binding slot through the executing
// snapshot's dictionaries: an encoded attribute id becomes its typed
// literal, a vertex id its IRI or blank node.
func BindingTerm(res dict.Resolver, id dict.VertexID) rdf.Term {
	if dict.IsAttrBinding(id) {
		return res.Attr(dict.AttrBinding(id)).Literal()
	}
	return rdf.NewResource(res.VertexIRI(id))
}

// IsPlain reports whether the query uses only the paper's core fragment
// (single BGP, no DISTINCT/FILTER/OFFSET), for which the factorized Count
// path is available.
func IsPlain(pq *sparql.Query) bool {
	return !pq.Distinct && len(pq.Filters) == 0 && len(pq.UnionBranches) == 0 && pq.Offset == 0
}

// PreparedQuery is a query translated and planned once against a Store
// and ready to execute many times: every UNION branch's query multigraph
// is built, its matching plan computed (including the per-vertex candidate
// constraints of Algorithm 1) and its FILTERs compiled up front, so
// repeated executions skip translation and planning entirely.
//
// Preparation records the store epoch it planned against (without
// retaining the snapshot, so idle cached plans cannot pin a retired
// generation after compaction). Every execution revalidates: if the
// store's epoch moved (a live update or a compaction), the branches are
// transparently re-planned against the current snapshot — the common
// unchanged case costs two atomic loads. Each execution then runs
// entirely against one snapshot, so results are never torn across an
// update. A PreparedQuery is safe for concurrent use.
type PreparedQuery struct {
	store   *Store
	planner plan.Planner
	pq      *sparql.Query
	proj    []string
	plain   bool

	mu    sync.Mutex // serializes re-preparation
	state atomic.Pointer[preparedState]
}

// preparedState is the per-epoch compiled form: one prepared branch per
// UNION alternative. It records the epoch it was planned against but
// deliberately does NOT hold the Snapshot — an idle cached plan must not
// pin a retired generation's graph and index ensemble in memory after a
// compaction. Epochs are in bijection with snapshots, so resolve() can
// always re-fetch the matching snapshot while it is current.
type preparedState struct {
	epoch    uint64
	branches []preparedBranch
}

// preparedBranch is one UNION branch: its cached matching plan, the
// filters resolved against that branch's variables, and the query vertex
// behind each projection position (-1 where the branch lacks the
// variable), so a row decodes only what it projects.
type preparedBranch struct {
	pl      *plan.Plan
	filters []compiledFilter
	proj    []int
}

// PrepareQuery translates a parsed query into its executable form using
// the default planner.
func (s *Store) PrepareQuery(pq *sparql.Query) (*PreparedQuery, error) {
	return s.PrepareQueryWith(plan.Default(), pq)
}

// PrepareQueryWith translates and plans with an explicit planner.
func (s *Store) PrepareQueryWith(pl plan.Planner, pq *sparql.Query) (*PreparedQuery, error) {
	p := &PreparedQuery{
		store:   s,
		planner: pl,
		pq:      pq,
		proj:    pq.Projection(),
		plain:   IsPlain(pq),
	}
	// Prepare eagerly so structural errors surface here, not at first use.
	if _, _, err := p.resolve(); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve returns the snapshot to execute against plus the compiled
// state matching its epoch, re-planning if a mutation or compaction
// moved the store. The returned snapshot is pinned by the caller for
// the duration of one execution only.
func (p *PreparedQuery) resolve() (*Snapshot, *preparedState, error) {
	cur := p.store.Snapshot()
	if st := p.state.Load(); st != nil && st.epoch == cur.Epoch {
		return cur, st, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur = p.store.Snapshot() // re-read: another goroutine may have won
	if st := p.state.Load(); st != nil && st.epoch == cur.Epoch {
		return cur, st, nil
	}
	st := &preparedState{epoch: cur.Epoch}
	for _, branch := range p.pq.Branches() {
		bq := &sparql.Query{Prefixes: p.pq.Prefixes, Star: true, Patterns: branch}
		qg, err := query.Build(bq, cur.Resolver())
		if err != nil {
			return nil, nil, err
		}
		proj := make([]int, len(p.proj))
		for i, name := range p.proj {
			proj[i] = -1
			if u, ok := qg.VarIndex[name]; ok {
				proj[i] = int(u)
			}
		}
		st.branches = append(st.branches, preparedBranch{
			pl:      p.planner.Plan(qg, cur.Reader()),
			filters: compileFilters(p.pq.Filters, qg),
			proj:    proj,
		})
	}
	p.state.Store(st)
	return cur, st, nil
}

// Query returns the parsed query the PreparedQuery was built from.
func (p *PreparedQuery) Query() *sparql.Query { return p.pq }

// Projection returns the projected variable names.
func (p *PreparedQuery) Projection() []string { return p.proj }

// Plan returns the current matching plan of a plain (single-branch)
// query, for diagnostics; nil otherwise. Live updates may re-plan, so
// successive calls can return different plans.
func (p *PreparedQuery) Plan() *plan.Plan {
	if !p.plain {
		return nil
	}
	_, st, err := p.resolve()
	if err != nil || len(st.branches) != 1 {
		return nil
	}
	return st.branches[0].pl
}

// Plans returns every branch's current plan (diagnostics; Explain).
func (p *PreparedQuery) Plans() []*plan.Plan {
	_, st, err := p.resolve()
	if err != nil {
		return nil
	}
	out := make([]*plan.Plan, len(st.branches))
	for i := range st.branches {
		out[i] = st.branches[i].pl
	}
	return out
}

// limit is the row cap of one execution: the query's own LIMIT clause
// tightened by opts.Limit (0 = unbounded).
func (p *PreparedQuery) limit(opts engine.Options) int {
	limit := p.pq.Limit
	if opts.Limit > 0 && (limit == 0 || opts.Limit < limit) {
		limit = opts.Limit
	}
	return limit
}

// Count counts solutions against one pinned snapshot, capped at the
// execution's row limit; see CountPlanParallel.
func (p *PreparedQuery) Count(opts engine.Options) (uint64, error) {
	return p.CountPlanParallel(opts, 1)
}

// CountPlanParallel counts solutions with a pool of worker goroutines. A
// plain query takes the factorized engine path (workers ≤ 1 is the
// serial engine.Count); an extension query enumerates rows sequentially.
func (p *PreparedQuery) CountPlanParallel(opts engine.Options, workers int) (uint64, error) {
	if !p.plain {
		var n uint64
		err := p.Execute(opts, func(Solution) bool { n++; return true })
		return n, err
	}
	sn, st, err := p.resolve()
	if err != nil {
		return 0, err
	}
	if opts.Meter == nil {
		opts.Meter = obs.TraceFromContext(opts.Ctx).Meter()
	}
	opts.Limit = p.limit(opts)
	return engine.CountParallel(sn.Reader(), st.branches[0].pl, opts, workers)
}

// Ask reports whether the query has at least one solution, stopping the
// search at the first one. It always takes the enumeration path: for a
// plain query Execute pushes the limit of one into the engine, whose
// Stream mode aborts after the first embedding — the factorized Count
// would tally every core match before applying its cap.
func (p *PreparedQuery) Ask(opts engine.Options) (bool, error) {
	opts.Limit = 1
	found := false
	err := p.Execute(opts, func(Solution) bool {
		found = true
		return false
	})
	return found, err
}

// Execute runs the prepared query against one pinned snapshot with the
// full extension fragment: UNION branches, FILTER constraints, DISTINCT,
// OFFSET and LIMIT. yield receives each solution's projected terms (a
// fresh slice per row, safe to retain); returning false stops
// evaluation.
//
// Row-level modifiers are applied in SPARQL order: filters per solution,
// then projection-level DISTINCT, then OFFSET, then LIMIT.
//
// When opts.Ctx carries an obs.Trace, the engine's effort counters and
// per-level candidate frontiers are recorded into it (per branch),
// alongside any opts.Stats the caller passed.
func (p *PreparedQuery) Execute(opts engine.Options, yield func(Solution) bool) error {
	sn, st, err := p.resolve()
	if err != nil {
		return err
	}
	tr := obs.TraceFromContext(opts.Ctx)
	if tr != nil && len(st.branches) > 0 {
		tr.SetPlan(st.branches[0].pl.Planner, p.Shape(), planSummary(st.branches), sn.Epoch)
	}
	if opts.Meter == nil {
		opts.Meter = tr.Meter()
	}
	pq := p.pq
	limit := p.limit(opts)

	// Only a plain query may push the limit into the engine.
	engOpts := opts
	engOpts.Limit = 0
	if p.plain {
		engOpts.Limit = limit
	}

	var (
		seen    map[string]bool
		skipped int
		emitted int
		stop    bool
	)
	if pq.Distinct {
		seen = make(map[string]bool)
	}

	emit := func(sol Solution) bool {
		if pq.Distinct {
			key := distinctKey(sol)
			if seen[key] {
				return true
			}
			seen[key] = true
		}
		if skipped < pq.Offset {
			skipped++
			return true
		}
		if !yield(sol) {
			stop = true
			return false
		}
		emitted++
		if limit > 0 && emitted >= limit {
			stop = true
			return false
		}
		return true
	}

	res := sn.Resolver()
	for bi := range st.branches {
		if stop {
			break
		}
		branch := &st.branches[bi]
		filters := branch.filters
		// A traced run uses per-branch engine stats (branches execute
		// different plans, so their level records must not interleave),
		// merged into the trace — and the caller's Stats — afterwards.
		engBranch := engOpts
		var bstats engine.Stats
		if tr != nil {
			engBranch.Stats = &bstats
		}
		err := engine.Stream(sn.Reader(), branch.pl, engBranch, func(asg []dict.VertexID) bool {
			for _, f := range filters {
				if !f(asg, res) {
					return true
				}
			}
			sol := make(Solution, len(branch.proj))
			for i, u := range branch.proj {
				if u >= 0 {
					sol[i] = BindingTerm(res, asg[u])
				}
			}
			return emit(sol)
		})
		if tr != nil {
			traceBranch(tr, bi, branch.pl, &bstats)
			if opts.Stats != nil {
				opts.Stats.InitCandidates += bstats.InitCandidates
				opts.Stats.Recursions += bstats.Recursions
				opts.Stats.SatProbes += bstats.SatProbes
				opts.Stats.Embeddings += bstats.Embeddings
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// distinctKey builds a deduplication key over the projected variables.
// The N-Triples rendering is injective over terms (kind, datatype and
// language tag are all part of it), and an unbound variable renders as
// the empty string, which no term renders as.
func distinctKey(sol Solution) string {
	parts := make([]string, len(sol))
	for i, t := range sol {
		if !t.IsZero() {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, "\x00")
}

// compiledFilter checks one FILTER against an embedding, resolving
// bound vertices through the executing snapshot's dictionaries (passed
// per call so the compiled form retains no snapshot reference).
type compiledFilter func(asg []dict.VertexID, res dict.Resolver) bool

// bindingText is the FILTER view of a binding: the IRI (or blank label)
// for resources, the lexical form for literals.
func bindingText(res dict.Resolver, id dict.VertexID) string {
	if dict.IsAttrBinding(id) {
		return res.Attr(dict.AttrBinding(id)).Lexical
	}
	return res.VertexIRI(id)
}

// sameBinding is sameTerm over two engine bindings. Equal ids are always
// the same term, but the converse stopped holding with literal
// satellites: attributes are interned per <predicate, literal>, so the
// same literal reached through two predicates carries two distinct ids
// and must be compared as a term.
func sameBinding(res dict.Resolver, a, b dict.VertexID) bool {
	if a == b {
		return true
	}
	if !dict.IsAttrBinding(a) || !dict.IsAttrBinding(b) {
		return false // distinct vertices, or a literal vs a resource
	}
	ta, tb := res.Attr(dict.AttrBinding(a)), res.Attr(dict.AttrBinding(b))
	return ta.Lexical == tb.Lexical && ta.Datatype == tb.Datatype && ta.Lang == tb.Lang
}

// compileFilters resolves filter variables against the branch's query
// graph. A filter whose variable is absent from this branch is vacuously
// true for the branch (the variable is unbound there).
func compileFilters(fs []sparql.Filter, qg *query.Graph) []compiledFilter {
	text := func(u query.VertexID, pred func(string) bool) compiledFilter {
		return func(asg []dict.VertexID, res dict.Resolver) bool {
			return pred(bindingText(res, asg[u]))
		}
	}
	// termEq is sameTerm equality against a constant: the texts must
	// match and, when either side carries a datatype or language tag,
	// the annotations must match too (an IRI constant or a plain-literal
	// constant still compares textually against IRI bindings, preserving
	// the pre-typed-term behaviour).
	termEq := func(u query.VertexID, rhs sparql.Term) compiledFilter {
		want := rhs.RDF()
		return func(asg []dict.VertexID, res dict.Resolver) bool {
			id := asg[u]
			if dict.IsAttrBinding(id) {
				a := res.Attr(dict.AttrBinding(id))
				return a.Lexical == want.Value && a.Datatype == want.Datatype && a.Lang == want.Lang
			}
			return want.Datatype == "" && want.Lang == "" && res.VertexIRI(id) == want.Value
		}
	}
	var out []compiledFilter
	for _, f := range fs {
		lhs, ok := qg.VarIndex[f.LHS]
		if !ok {
			continue
		}
		if f.RHS.Kind == sparql.Var {
			rhs, ok := qg.VarIndex[f.RHS.Value]
			if !ok {
				continue
			}
			switch f.Op {
			case sparql.FilterEq:
				out = append(out, func(asg []dict.VertexID, res dict.Resolver) bool { return sameBinding(res, asg[lhs], asg[rhs]) })
			case sparql.FilterNe:
				out = append(out, func(asg []dict.VertexID, res dict.Resolver) bool { return !sameBinding(res, asg[lhs], asg[rhs]) })
			case sparql.FilterRegex:
				out = append(out, func(asg []dict.VertexID, res dict.Resolver) bool {
					return strings.Contains(bindingText(res, asg[lhs]), bindingText(res, asg[rhs]))
				})
			case sparql.FilterStrStarts:
				out = append(out, func(asg []dict.VertexID, res dict.Resolver) bool {
					return strings.HasPrefix(bindingText(res, asg[lhs]), bindingText(res, asg[rhs]))
				})
			}
			continue
		}
		val := f.RHS.Value
		switch f.Op {
		case sparql.FilterEq:
			out = append(out, termEq(lhs, f.RHS))
		case sparql.FilterNe:
			eq := termEq(lhs, f.RHS)
			out = append(out, func(asg []dict.VertexID, res dict.Resolver) bool { return !eq(asg, res) })
		case sparql.FilterRegex:
			out = append(out, text(lhs, func(x string) bool { return strings.Contains(x, val) }))
		case sparql.FilterStrStarts:
			out = append(out, text(lhs, func(x string) bool { return strings.HasPrefix(x, val) }))
		}
	}
	return out
}
