package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Shape classifies the query into a low-cardinality class usable as a
// metric label: "ask" for ASK queries, "ground" for fully variable-free
// queries, "star" when every component has a single core vertex (the
// paper's star-shaped decomposition unit), "complex" when some component
// chains two or more core vertices. The classification is structural —
// it depends on the query multigraph's core/satellite split, not on the
// data — so it is stable across re-planning.
func (p *PreparedQuery) Shape() string {
	if p.pq.Ask {
		return "ask"
	}
	maxCore := 0
	for _, pl := range p.Plans() {
		for i := range pl.Components {
			if n := len(pl.Components[i].Core); n > maxCore {
				maxCore = n
			}
		}
	}
	switch {
	case maxCore == 0:
		return "ground"
	case maxCore == 1:
		return "star"
	default:
		return "complex"
	}
}

// planSummary renders a one-line plan digest for traces and the slow-
// query log: planner, branch count, and per-component core sizes.
func planSummary(branches []preparedBranch) string {
	if len(branches) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "planner=%s branches=%d", branches[0].pl.Planner, len(branches))
	for bi := range branches {
		pl := branches[bi].pl
		if pl.Empty {
			fmt.Fprintf(&b, " b%d=empty(%s)", bi, pl.EmptyReason)
			continue
		}
		sizes := make([]string, len(pl.Components))
		for ci := range pl.Components {
			sizes[ci] = fmt.Sprintf("%d", len(pl.Components[ci].Core))
		}
		fmt.Fprintf(&b, " b%d=core[%s]", bi, strings.Join(sizes, ","))
	}
	return b.String()
}

// startTrace records the plan into the trace opts.Ctx carries, if any,
// and hands the engine the trace's resource meter unless the caller
// brought one. It returns the trace, nil when the run is untraced.
func (p *PreparedQuery) startTrace(sn *Snapshot, st *preparedState, opts *engine.Options) *obs.Trace {
	tr := obs.TraceFromContext(opts.Ctx)
	if tr != nil && len(st.branches) > 0 {
		tr.SetPlan(st.branches[0].pl.Planner, p.Shape(), planSummary(st.branches), sn.Epoch)
	}
	if opts.Meter == nil {
		opts.Meter = tr.Meter()
	}
	return tr
}

// traced runs one branch's engine call. A traced run uses per-branch
// engine stats (branches execute different plans, so their level records
// must not interleave): its counters, and its per-level frontiers paired
// with the planner's estimate for each position, go into the trace, and
// the counters are merged into the caller's Stats.
func traced(tr *obs.Trace, bi int, pl *plan.Plan, opts engine.Options, run func(engine.Options) error) error {
	if tr == nil {
		return run(opts)
	}
	var st engine.Stats
	caller := opts.Stats
	opts.Stats = &st
	err := run(opts)
	if caller != nil {
		caller.InitCandidates += st.InitCandidates
		caller.Recursions += st.Recursions
		caller.SatProbes += st.SatProbes
		caller.Embeddings += st.Embeddings
	}
	tr.AddEngine(obs.EngineCounters{
		InitCandidates: st.InitCandidates,
		Recursions:     st.Recursions,
		SatProbes:      st.SatProbes,
		Embeddings:     st.Embeddings,
	})
	if len(st.Levels) == 0 {
		return err
	}
	levels := make([]obs.Level, 0, len(st.Levels))
	for _, l := range st.Levels {
		est := math.Inf(1)
		if ests := pl.Components[l.Component].Estimates; l.Pos < len(ests) {
			est = ests[l.Pos]
		}
		levels = append(levels, obs.Level{
			Branch:     bi,
			Component:  l.Component,
			Pos:        l.Pos,
			Var:        pl.Query.Vars[l.Vertex].Name,
			Est:        est,
			Candidates: l.Candidates,
			Visits:     l.Visits,
		})
	}
	tr.AddLevels(levels)
	return err
}
