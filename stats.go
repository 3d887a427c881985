package amber

import (
	"context"
	"errors"
	"strconv"
	"time"

	"repro/internal/plan"
)

// Stats describes a database's contents and offline-stage construction
// cost (the quantities of the paper's Tables 4 and 5).
type Stats struct {
	// Triples is the number of source RDF statements ingested.
	Triples int
	// Vertices is |V|: distinct subject/object IRIs.
	Vertices int
	// Edges is the number of distinct directed vertex pairs with at least
	// one predicate between them (multi-edges collapse).
	Edges int
	// EdgeTypes is |T|: distinct predicates connecting IRIs.
	EdgeTypes int
	// Attributes is |A|: distinct <predicate, literal> tuples.
	Attributes int

	// DatabaseBuildTime and IndexBuildTime are the offline-stage timings:
	// the multigraph's, which builds A and N with it, and S's together
	// with the planner statistics.
	DatabaseBuildTime time.Duration
	IndexBuildTime    time.Duration
	// DatabaseBytes is the size of the multigraph's arrays and
	// dictionaries. The graph's attribute side is the paper's attribute
	// index A and its type-major adjacency the neighbourhood index N, so
	// A's and N's bytes count here. IndexBytes is the size of the rest of
	// the ensemble I = {A, S, N}: S's level arrays.
	DatabaseBytes int64
	IndexBytes    int64
}

// Stats reports the database's statistics for the merged live view
// (base generation plus any uncompacted delta overlay). The build
// timings and IndexBytes describe the base generation; DatabaseBytes
// also counts the terms the overlay has interned into the generation's
// dictionaries.
func (db *DB) Stats() Stats {
	sn := db.store.Snapshot()
	v := sn.Delta
	return Stats{
		Triples:           v.NumTriples(),
		Vertices:          v.NumVertices(),
		Edges:             v.NumEdges(),
		EdgeTypes:         v.NumEdgeTypes(),
		Attributes:        v.NumAttrs(),
		DatabaseBuildTime: sn.Build.DatabaseTime,
		IndexBuildTime:    sn.Build.IndexTime,
		DatabaseBytes:     sn.Build.DatabaseBytes + v.Snapshot.Bytes() - sn.Graph.Terms().Bytes(),
		IndexBytes:        sn.Build.IndexBytes,
	}
}

// ExplainPlanner renders the planner's execution view of a query:
// core/satellite decomposition, the chosen matching order, per-vertex
// constraints, and estimated vs. actual candidate-set sizes for every
// core vertex. planner is "cost" (the default, also chosen by "") or
// "heuristic" (the paper's static Section 5.3 ordering). The format is
// human-oriented and not stable.
func (db *DB) ExplainPlanner(sparqlText, planner string) (string, error) {
	pl, ok := plan.ByName(planner)
	if !ok {
		return "", errors.New("amber: unknown planner " + strconv.Quote(planner))
	}
	pq, err := db.parse(sparqlText)
	if err != nil {
		return "", err
	}
	return db.store.ExplainQuery(pl, pq)
}

// ExplainAnalyzeContext executes the query and renders, per core-vertex
// matching level, the planner's estimated candidate-set size against
// the frontier the engine actually enumerated, plus the engine's effort
// counters — EXPLAIN's estimates validated by a real run. ctx and opts
// bound the execution exactly as in QueryContext (a timed-out run
// returns ErrTimeout and no report); planner is as in ExplainPlanner.
// The format is human-oriented and not stable.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, sparqlText, planner string, opts *QueryOptions) (string, error) {
	pl, ok := plan.ByName(planner)
	if !ok {
		return "", errors.New("amber: unknown planner " + strconv.Quote(planner))
	}
	pq, err := db.parse(sparqlText)
	if err != nil {
		return "", err
	}
	eo, cancel := opts.engineOptions(ctx)
	defer cancel()
	out, err := db.store.ExplainAnalyze(pl, pq, eo)
	return out, mapExecErr(err)
}
