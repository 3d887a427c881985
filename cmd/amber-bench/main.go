// Command amber-bench regenerates every table and figure of the paper's
// evaluation (Section 7) at a configurable scale, comparing AMbER against
// the two baseline architectures (permutation-index triple store and
// filter-and-refine graph matcher).
//
// Usage:
//
//	amber-bench -exp all
//	amber-bench -exp fig6 -scale 2 -queries 50 -timeout 1s
//	amber-bench -exp table1
//
// Experiments: table1, table4, table5, fig6 (star/DBPEDIA), fig7
// (complex/DBPEDIA), fig8 (star/YAGO), fig9 (complex/YAGO), fig10
// (star/LUBM), fig11 (complex/LUBM), all.
//
// The repository's performance gate is benchmark/ (see benchmark/README.md);
// this command reproduces the paper's evaluation. Query latency under live
// updates, compaction and a write-ahead log is the gate's churn-durable
// workload: bash benchmark/run.sh --workload churn-durable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/workload"
)

type figureSpec struct {
	id      string
	dataset string
	kind    workload.Kind
	caption string
}

var figures = []figureSpec{
	{"fig6", "DBPEDIA", workload.Star, "Figure 6: star-shaped queries on DBPEDIA"},
	{"fig7", "DBPEDIA", workload.Complex, "Figure 7: complex-shaped queries on DBPEDIA"},
	{"fig8", "YAGO", workload.Star, "Figure 8: star-shaped queries on YAGO"},
	{"fig9", "YAGO", workload.Complex, "Figure 9: complex-shaped queries on YAGO"},
	{"fig10", "LUBM", workload.Star, "Figure 10: star-shaped queries on LUBM"},
	{"fig11", "LUBM", workload.Complex, "Figure 11: complex-shaped queries on LUBM"},
}

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment id (table1, table4, table5, fig6..fig11, all)")
		scale        = flag.Int("scale", 1, "dataset scale factor (dbpedia/yago)")
		universities = flag.Int("universities", 3, "LUBM scale factor")
		queries      = flag.Int("queries", 25, "queries per point (paper: 200)")
		timeout      = flag.Duration("timeout", 500*time.Millisecond, "per-query time constraint (paper: 60s)")
		seed         = flag.Int64("seed", 2016, "generation seed")
		sizes        = flag.String("sizes", "10,20,30,40,50", "query sizes (triple patterns)")
		planner      = flag.String("planner", "cost", "AMbER matching-order planner: cost (statistics-driven) or heuristic (paper §5.3)")
	)
	flag.Parse()

	// Fail on a bad planner name before any (expensive) dataset build.
	if _, ok := plan.ByName(*planner); !ok {
		fmt.Fprintf(os.Stderr, "amber-bench: unknown planner %q (use cost or heuristic)\n", *planner)
		os.Exit(1)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Universities = *universities
	cfg.QueriesPerPoint = *queries
	cfg.Timeout = *timeout
	cfg.Seed = *seed
	cfg.Planner = *planner
	cfg.Sizes = nil
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "amber-bench: bad size %q\n", s)
			os.Exit(1)
		}
		cfg.Sizes = append(cfg.Sizes, n)
	}

	if err := run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "amber-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg experiments.Config) error {
	fmt.Printf("# amber-bench: scale=%d universities=%d queries/point=%d timeout=%s seed=%d planner=%s\n",
		cfg.Scale, cfg.Universities, cfg.QueriesPerPoint, cfg.Timeout, cfg.Seed, cfg.Planner)
	fmt.Printf("# engines: AMbER (this paper), PermStore (x-RDF-3X/Virtuoso class), GraphMatch (gStore/TurboHom++ class)\n\n")

	datasets := map[string]*experiments.Dataset{}
	getDS := func(name string) (*experiments.Dataset, error) {
		if d, ok := datasets[name]; ok {
			return d, nil
		}
		fmt.Fprintf(os.Stderr, "building %s...\n", name)
		d, err := experiments.BuildDataset(name, cfg)
		if err != nil {
			return nil, err
		}
		datasets[name] = d
		return d, nil
	}

	want := func(id string) bool { return exp == "all" || exp == id }
	ran := false

	if want("table4") || want("table5") {
		var all []*experiments.Dataset
		for _, name := range []string{"DBPEDIA", "YAGO", "LUBM"} {
			d, err := getDS(name)
			if err != nil {
				return err
			}
			all = append(all, d)
		}
		if want("table4") {
			fmt.Println(experiments.FormatTable4(experiments.Table4(all)))
			ran = true
		}
		if want("table5") {
			fmt.Println(experiments.FormatTable5(experiments.Table5(all)))
			ran = true
		}
	}

	if want("table1") {
		d, err := getDS("DBPEDIA")
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(experiments.RunTable1(d, cfg)))
		ran = true
	}

	for _, f := range figures {
		if !want(f.id) {
			continue
		}
		d, err := getDS(f.dataset)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", f.id)
		points := experiments.RunFigure(d, f.kind, cfg)
		fmt.Println(experiments.FormatFigure(f.caption, points))
		ran = true
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
