// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7) at configurable scale: Table 1 (50-triplet
// complex queries on DBPEDIA), Table 4 (benchmark statistics), Table 5
// (offline construction cost), and Figures 6–11 (time and robustness for
// star/complex workloads of sizes 10–50 on DBPEDIA, YAGO and LUBM).
//
// The engines compared are AMbER (this repository's core contribution),
// the permutation-index triple store (x-RDF-3X/Virtuoso architecture
// class) and the filter-and-refine graph matcher (gStore/TurboHom++
// class); see DESIGN.md §5 for the substitution rationale.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
	"repro/internal/workload"
)

// Config scales the experiments. The paper's full setting (33M triples,
// 60 s timeout, 200 queries/point) is reachable by raising these knobs;
// the defaults target a laptop-scale run with the same workload shape.
type Config struct {
	// Scale multiplies dataset size (DBpedia-like ≈ 60k, YAGO-like ≈ 54k
	// triples at scale 1).
	Scale int
	// Universities is the LUBM scale factor (paper: 100).
	Universities int
	// Seed drives dataset and workload generation.
	Seed int64
	// Timeout is the per-query time constraint (paper: 60 s).
	Timeout time.Duration
	// QueriesPerPoint is the workload size per (dataset, shape, size)
	// point (paper: 200).
	QueriesPerPoint int
	// Sizes are the query sizes in triple patterns (paper: 10..50).
	Sizes []int
	// Planner selects AMbER's matching-order planner: "cost" (default,
	// statistics-driven) or "heuristic" (the paper's static Section 5.3
	// ordering), so runs under both are comparable.
	Planner string
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Scale:           1,
		Universities:    3,
		Seed:            2016,
		Timeout:         500 * time.Millisecond,
		QueriesPerPoint: 25,
		Sizes:           []int{10, 20, 30, 40, 50},
	}
}

// EngineName identifies one competitor.
type EngineName string

// The three engines of the comparison.
const (
	AMbER      EngineName = "AMbER"
	PermStore  EngineName = "PermStore"  // x-RDF-3X / Virtuoso class
	GraphMatch EngineName = "GraphMatch" // gStore / TurboHom++ class
)

// Engines lists the comparison order used in all outputs.
var Engines = []EngineName{AMbER, PermStore, GraphMatch}

// Dataset bundles one benchmark corpus loaded into all three engines.
type Dataset struct {
	Name    string
	Triples []rdf.Triple
	Amber   *core.Store
	Store   *triplestore.Store
	Graph   *baseline.Graph
	Gen     *workload.Generator

	// Planner orders AMbER's matching (from Config.Planner; nil means the
	// default cost-based planner).
	Planner plan.Planner

	// Build costs for Table 5 (AMbER's offline stage).
	AmberStats core.BuildStats
}

func (d *Dataset) planner() plan.Planner {
	if d.Planner != nil {
		return d.Planner
	}
	return plan.Default()
}

// BuildDataset generates the corpus and loads every engine.
func BuildDataset(name string, cfg Config) (*Dataset, error) {
	var triples []rdf.Triple
	switch name {
	case "DBPEDIA":
		triples = datagen.DBpediaLike(cfg.Scale, cfg.Seed)
	case "YAGO":
		triples = datagen.YAGOLike(cfg.Scale, cfg.Seed+1)
	case "LUBM":
		triples = datagen.LUBM(datagen.LUBMConfig{Universities: cfg.Universities, Seed: cfg.Seed + 2})
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	amber, err := core.NewStore(triples)
	if err != nil {
		return nil, err
	}
	planner, ok := plan.ByName(cfg.Planner)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown planner %q", cfg.Planner)
	}
	st, err := triplestore.FromTriples(triples)
	if err != nil {
		return nil, err
	}
	bg, err := baseline.FromTriples(triples)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Name:       name,
		Triples:    triples,
		Amber:      amber,
		Store:      st,
		Graph:      bg,
		Gen:        workload.NewGenerator(triples, cfg.Seed+7, workload.DefaultConfig()),
		Planner:    planner,
		AmberStats: amber.BuildInfo(),
	}, nil
}

// RunQuery executes one query on one engine under the timeout, reporting
// whether it finished and how long it ran.
func (d *Dataset) RunQuery(name EngineName, q *sparql.Query, timeout time.Duration) (answered bool, dur time.Duration, count uint64) {
	deadline := time.Now().Add(timeout)
	start := time.Now()
	var err error
	switch name {
	case AMbER:
		// PreparedQuery pins one MVCC snapshot for plan + execution, so
		// the measurement stays correct under concurrent compaction.
		g, buildErr := d.Amber.PrepareQueryWith(d.planner(), q)
		if buildErr != nil {
			return false, 0, 0
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		count, err = g.Count(engine.Options{Ctx: ctx})
		cancel()
	case PermStore:
		c := d.Store.Compile(q)
		count, err = d.Store.Count(c, triplestore.Options{Deadline: deadline})
	case GraphMatch:
		c := d.Graph.Compile(q)
		count, err = d.Graph.Count(c, baseline.Options{Deadline: deadline})
	}
	dur = time.Since(start)
	return err == nil, dur, count
}

// Point is one x-axis point of a figure: a query size with per-engine
// average time over answered queries and percentage unanswered.
type Point struct {
	Size       int
	AvgTime    map[EngineName]time.Duration
	Unanswered map[EngineName]float64
	Queries    int
}

// RunFigure evaluates one (dataset, shape) figure: for each size, generate
// the workload and run all engines under the timeout, exactly as
// Section 7.2 prescribes (averages computed over answered queries only).
func RunFigure(d *Dataset, kind workload.Kind, cfg Config) []Point {
	points := make([]Point, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		queries := d.Gen.Workload(kind, size, cfg.QueriesPerPoint)
		p := Point{
			Size:       size,
			AvgTime:    map[EngineName]time.Duration{},
			Unanswered: map[EngineName]float64{},
			Queries:    len(queries),
		}
		for _, eng := range Engines {
			var total time.Duration
			answeredN := 0
			for _, q := range queries {
				answered, dur, _ := d.RunQuery(eng, q, cfg.Timeout)
				if answered {
					answeredN++
					total += dur
				}
			}
			if answeredN > 0 {
				p.AvgTime[eng] = total / time.Duration(answeredN)
			}
			if len(queries) > 0 {
				p.Unanswered[eng] = 100 * float64(len(queries)-answeredN) / float64(len(queries))
			}
		}
		points = append(points, p)
	}
	return points
}

// Table1Result is the paper's headline comparison: average time for
// complex queries of 50 triplets on DBPEDIA.
type Table1Result struct {
	AvgTime    map[EngineName]time.Duration
	Unanswered map[EngineName]float64
	Queries    int
	Timeout    time.Duration
}

// RunTable1 reproduces Table 1.
func RunTable1(d *Dataset, cfg Config) Table1Result {
	pts := RunFigure(d, workload.Complex, Config{
		Scale:           cfg.Scale,
		Seed:            cfg.Seed,
		Timeout:         cfg.Timeout,
		QueriesPerPoint: cfg.QueriesPerPoint,
		Sizes:           []int{50},
		Planner:         cfg.Planner,
	})
	r := Table1Result{
		AvgTime:    map[EngineName]time.Duration{},
		Unanswered: map[EngineName]float64{},
		Timeout:    cfg.Timeout,
	}
	if len(pts) == 1 {
		r.AvgTime = pts[0].AvgTime
		r.Unanswered = pts[0].Unanswered
		r.Queries = pts[0].Queries
	}
	return r
}

// Table4Row is one row of the benchmark-statistics table.
type Table4Row struct {
	Dataset   string
	Triples   int
	Vertices  int
	Edges     int
	EdgeTypes int
}

// Table4 reproduces the paper's Table 4 for a set of datasets.
func Table4(datasets []*Dataset) []Table4Row {
	rows := make([]Table4Row, 0, len(datasets))
	for _, d := range datasets {
		g := d.Amber.Graph()
		rows = append(rows, Table4Row{
			Dataset:   d.Name,
			Triples:   g.NumTriples(),
			Vertices:  g.NumVertices(),
			Edges:     g.NumEdges(),
			EdgeTypes: g.NumEdgeTypes(),
		})
	}
	return rows
}

// Table5Row is one row of the offline-stage cost table.
type Table5Row struct {
	Dataset       string
	DatabaseTime  time.Duration
	DatabaseBytes int64
	IndexTime     time.Duration
	IndexBytes    int64
}

// Table5 reproduces the paper's Table 5.
func Table5(datasets []*Dataset) []Table5Row {
	rows := make([]Table5Row, 0, len(datasets))
	for _, d := range datasets {
		rows = append(rows, Table5Row{
			Dataset:       d.Name,
			DatabaseTime:  d.AmberStats.DatabaseTime,
			DatabaseBytes: d.AmberStats.DatabaseBytes,
			IndexTime:     d.AmberStats.IndexTime,
			IndexBytes:    d.AmberStats.IndexBytes,
		})
	}
	return rows
}
