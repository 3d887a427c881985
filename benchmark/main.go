// Command benchmark is the repository's performance gate: four workloads
// over the real internal/server handler on a loopback listener, answers
// checked, every metric printed by name. README.md explains the
// workloads, the metrics and how to compare two commits.
//
//	bash benchmark/run.sh --workload serve-hot --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # all four workloads
//	bash benchmark/run.sh -repeat 10           # spread report over ten seeds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

var workloads = []string{"serve-hot", "match-cold", "churn-durable", "bulk-load"}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	short    bool
	repeat   int
	out      string
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "serve-hot, match-cold, churn-durable, bulk-load or all")
	flag.Int64Var(&o.seed, "seed", datasetSeed, "seed of the generated traffic")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.BoolVar(&o.short, "short", false, "smoke-test scale: small corpora and pools")
	flag.IntVar(&o.repeat, "repeat", 0, "run N sets with seeds seed..seed+N-1 and report each metric's spread against its bound")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "scratch and trace directory, inside the checkout")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark contract, read for the bounds by -repeat")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloads
	if o.workload != "all" {
		if !slices.Contains(workloads, o.workload) {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		names = []string{o.workload}
	}
	if o.repeat > 0 {
		if err := repeat(o, names); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		res, err := measure(o, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload once and prints its metrics by name.
func measure(o options, name string) (*result, error) {
	sc := fullScale
	if o.short {
		sc = shortScale
	}
	dir, err := scratch(o.out, name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seed: o.seed, seconds: o.seconds, trace: o.trace == 1, sc: sc, dir: dir,
		tracePath: filepath.Join(o.out, "trace.jsonl"),
		e2e:       map[string]float64{}, layer: map[string]float64{},
	}
	switch name {
	case "serve-hot":
		err = r.serveHot()
	case "match-cold":
		err = r.matchCold()
	case "churn-durable":
		err = r.churnDurable()
	case "bulk-load":
		err = r.bulkLoad()
	}
	if err != nil {
		return nil, err
	}

	if r.overheadN > 0 {
		r.layer["server.overhead_s"] = r.overheadS / float64(r.overheadN)
	}
	defs, values := endToEnd, r.e2e
	if r.trace {
		defs, values = perLayer, r.layer
	}
	res := &result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", name, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for k := range values {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", k)
		}
	}
	for _, line := range r.info {
		fmt.Println("  #", line)
	}
	fmt.Printf("  attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, n := range r.notes {
		fmt.Println("  ! ", n)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
