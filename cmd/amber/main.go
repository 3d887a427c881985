// Command amber loads an RDF dataset and answers SPARQL SELECT and ASK
// queries with the AMbER engine. Results print as typed terms in
// N-Triples syntax (literals keep their datatype and language tag);
// Ctrl-C cancels an in-flight query through the engine's context
// support.
//
// Usage:
//
//	amber -data data.nt -query 'SELECT ?x WHERE { ... }'
//	amber -data data.nt -queryfile q.rq -limit 10 -timeout 60s
//	amber -data data.nt -query 'ASK { ... }'
//	amber -data data.nt -stats
//	amber -data data.nt -verbose -query '...'   # structured trace on stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"repro"
	"repro/internal/obs"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "RDF data file (N-Triples, prefixed names allowed)")
		snapshot  = flag.String("snapshot", "", "binary snapshot to load instead of -data")
		saveSnap  = flag.String("save-snapshot", "", "write a binary snapshot after loading and exit")
		queryText = flag.String("query", "", "SPARQL SELECT query text")
		queryFile = flag.String("queryfile", "", "file holding the SPARQL query ('-' for stdin)")
		limit     = flag.Int("limit", 0, "maximum result rows (0 = all)")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-query time constraint")
		countOnly = flag.Bool("count", false, "print only the number of solutions")
		workers   = flag.Int("workers", 1, "worker goroutines for -count (parallel engine)")
		stats     = flag.Bool("stats", false, "print database statistics and exit")
		verbose   = flag.Bool("verbose", false, "log load/query progress and a per-query execution trace to stderr")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if err := run(logger, *dataPath, *snapshot, *saveSnap, *queryText, *queryFile, *limit, *timeout, *countOnly, *workers, *stats, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "amber:", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, dataPath, snapshot, saveSnap, queryText, queryFile string, limit int, timeout time.Duration, countOnly bool, workers int, stats, verbose bool) error {
	var (
		db  *amber.DB
		err error
	)
	start := time.Now()
	switch {
	case snapshot != "":
		db, err = amber.OpenSnapshotFile(snapshot)
	case dataPath != "":
		db, err = amber.OpenFile(dataPath)
	default:
		return fmt.Errorf("missing -data or -snapshot")
	}
	if err != nil {
		return err
	}
	if saveSnap != "" {
		if err := db.SaveFile(saveSnap); err != nil {
			return err
		}
		logger.Info("snapshot written", "path", saveSnap)
		return nil
	}
	st := db.Stats()
	logger.Info("loaded",
		"triples", st.Triples, "vertices", st.Vertices, "edge_types", st.EdgeTypes,
		"duration", time.Since(start).Round(time.Millisecond))

	if stats {
		fmt.Printf("triples:     %d\n", st.Triples)
		fmt.Printf("vertices:    %d\n", st.Vertices)
		fmt.Printf("edges:       %d\n", st.Edges)
		fmt.Printf("edge types:  %d\n", st.EdgeTypes)
		fmt.Printf("attributes:  %d\n", st.Attributes)
		fmt.Printf("db build:    %s (%d bytes)\n", st.DatabaseBuildTime.Round(time.Microsecond), st.DatabaseBytes)
		fmt.Printf("index build: %s (%d bytes)\n", st.IndexBuildTime.Round(time.Microsecond), st.IndexBytes)
		return nil
	}

	if queryFile != "" {
		var data []byte
		if queryFile == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(queryFile)
		}
		if err != nil {
			return err
		}
		queryText = string(data)
	}
	if queryText == "" {
		return fmt.Errorf("missing -query or -queryfile")
	}

	opts := &amber.QueryOptions{Limit: limit, Timeout: timeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -verbose, thread a trace through the context so the execution
	// layer records plan shape, engine effort, and per-level frontiers —
	// the same record the server's slow-query log emits.
	var tr *obs.Trace
	if verbose {
		tr = obs.NewTrace(queryText)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	logTrace := func(status string, rows uint64) {
		if tr == nil {
			return
		}
		tr.Finish(status, rows)
		logger.LogAttrs(ctx, slog.LevelDebug, "query trace", tr.SlogAttrs()...)
	}

	prep, err := db.Prepare(queryText)
	if err != nil {
		return err
	}
	qStart := time.Now()
	if prep.IsAsk() {
		yes, err := prep.AskContext(ctx, opts)
		if err != nil {
			logTrace("error", 0)
			return err
		}
		logTrace("ok", 0)
		fmt.Printf("%v (%s)\n", yes, time.Since(qStart).Round(time.Microsecond))
		return nil
	}
	if countOnly {
		var n uint64
		if workers > 1 {
			n, err = prep.CountParallel(opts, workers)
		} else {
			n, err = prep.Count(opts)
		}
		if err != nil {
			logTrace("error", 0)
			return err
		}
		logTrace("ok", n)
		fmt.Printf("%d solutions in %s\n", n, time.Since(qStart).Round(time.Microsecond))
		return nil
	}
	nRows := 0
	for b, err := range prep.All(ctx, opts) {
		if err != nil {
			logTrace("error", uint64(nRows))
			return err
		}
		nRows++
		for i, v := range b.Vars() {
			if i > 0 {
				fmt.Print("\t")
			}
			if t, ok := b.At(i); ok {
				fmt.Printf("?%s=%s", v, t)
			} else {
				fmt.Printf("?%s=UNBOUND", v)
			}
		}
		fmt.Println()
	}
	logTrace("ok", uint64(nRows))
	logger.Info("done", "rows", nRows, "duration", time.Since(qStart).Round(time.Microsecond))
	return nil
}
