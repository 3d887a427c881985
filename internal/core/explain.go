package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sparql"
)

// ExplainQuery renders the engine's execution view of a parsed query under
// the given planner: the core/satellite decomposition, the chosen matching
// order, the per-vertex constraints, and — for every core vertex — the
// planner's estimated candidate-set size next to the actual standalone
// candidate count: the CandInit the engine would enumerate were the vertex
// its component's initial one (engine.InitialCandidates). It is a diagnostic
// aid; the output format is human-oriented and not stable.
func (s *Store) ExplainQuery(pl plan.Planner, pq *sparql.Query) (string, error) {
	sn := s.Snapshot()
	qg, err := query.Build(pq, sn.Resolver())
	if err != nil {
		return "", err
	}
	p := pl.Plan(qg, sn.Reader())

	var b strings.Builder
	fmt.Fprintf(&b, "query: %d pattern(s), %d variable(s)\n", len(pq.Patterns), len(qg.Vars))
	fmt.Fprintf(&b, "planner: %s\n", p.Planner)
	if !IsPlain(pq) {
		fmt.Fprintf(&b, "extensions: distinct=%v unionBranches=%d filters=%d offset=%d\n",
			pq.Distinct, len(pq.UnionBranches), len(pq.Filters), pq.Offset)
	}
	if qg.Unsat {
		fmt.Fprintf(&b, "UNSATISFIABLE: %s\n", qg.UnsatReason)
		return b.String(), nil
	}
	if len(qg.GroundEdges)+len(qg.GroundAttrs) > 0 {
		fmt.Fprintf(&b, "ground checks: %d edge(s), %d attribute(s)\n",
			len(qg.GroundEdges), len(qg.GroundAttrs))
	}
	if p.Empty {
		fmt.Fprintf(&b, "EMPTY: %s\n", p.EmptyReason)
		return b.String(), nil
	}
	for ci := range p.Components {
		comp := &p.Components[ci]
		fmt.Fprintf(&b, "component %d:\n", ci)
		for pos, u := range comp.Core {
			v := &qg.Vars[u]
			fmt.Fprintf(&b, "  core[%d] ?%s deg=%d attrs=%d iris=%d",
				pos, v.Name, qg.VarDegree(u), len(v.Attrs), len(v.IRIs))
			fmt.Fprintf(&b, " est=%s actual=%d", fmtEst(comp.Estimates[pos]), len(engine.InitialCandidates(sn.Reader(), p, u)))
			if sats := comp.Satellites[u]; len(sats) > 0 {
				names := make([]string, len(sats))
				for i, su := range sats {
					names[i] = "?" + qg.Vars[su].Name
				}
				sort.Strings(names)
				fmt.Fprintf(&b, " satellites=[%s]", strings.Join(names, " "))
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// ExplainAnalyze executes the query under a trace and renders, for every
// core-vertex matching level, the planner's estimated candidate-set size
// against the frontier the engine actually enumerated (total and mean
// per visit, with the visit count — the level's share of the recursion).
// Execution honours opts (limit, context); on an execution error
// (timeout, cancellation) no report is produced and the error is
// returned. The output format is human-oriented and not stable.
func (s *Store) ExplainAnalyze(pl plan.Planner, pq *sparql.Query, opts engine.Options) (string, error) {
	p, err := s.PrepareQueryWith(pl, pq)
	if err != nil {
		return "", err
	}
	// The report is rendered from a private trace; the caller's resource
	// meter (and with it the visit guard) stays attached to the run.
	tr := obs.NewTrace("")
	tr.SetMeter(obs.TraceFromContext(opts.Ctx).Meter())
	opts.Ctx = obs.ContextWithTrace(opts.Ctx, tr)
	rows := uint64(0)
	if err := p.Execute(opts, func(Solution) bool { rows++; return true }); err != nil {
		return "", err
	}
	tr.Finish("ok", rows)

	v := tr.View()
	var b strings.Builder
	fmt.Fprintf(&b, "query: %d pattern(s), shape=%s\n", len(pq.Patterns), p.Shape())
	fmt.Fprintf(&b, "planner: %s\n", v.Planner)
	if v.PlanSummary != "" {
		fmt.Fprintf(&b, "plan: %s\n", v.PlanSummary)
	}
	lastBranch, lastComp := -1, -1
	for _, l := range v.Levels {
		if l.Branch != lastBranch || l.Component != lastComp {
			fmt.Fprintf(&b, "branch %d component %d:\n", l.Branch, l.Component)
			lastBranch, lastComp = l.Branch, l.Component
		}
		fmt.Fprintf(&b, "  core[%d] ?%s est=%s actual=%d visits=%d mean=%s\n",
			l.Pos, l.Var, fmtEst(l.Est), l.Candidates, l.Visits, fmtEst(l.Mean()))
	}
	fmt.Fprintf(&b, "engine: init_candidates=%d recursions=%d sat_probes=%d embeddings=%d\n",
		v.Engine.InitCandidates, v.Engine.Recursions, v.Engine.SatProbes, v.Engine.Embeddings)
	if ratio, ok := tr.EstActualRatio(); ok {
		fmt.Fprintf(&b, "plan quality: est/actual ratio=%.2f\n", ratio)
	}
	fmt.Fprintf(&b, "rows: %d\n", rows)
	fmt.Fprintf(&b, "time: %s\n", tr.Duration())
	return b.String(), nil
}

// fmtEst renders a planner estimate compactly (estimates are derived from
// integer statistics but may be fractional after fanout division).
func fmtEst(e float64) string {
	if math.IsInf(e, 1) {
		return "inf"
	}
	if e == math.Trunc(e) {
		return fmt.Sprintf("%.0f", e)
	}
	return fmt.Sprintf("%.1f", e)
}
