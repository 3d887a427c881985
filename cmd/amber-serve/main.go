// Command amber-serve exposes an AMbER database as a SPARQL 1.1 Protocol
// HTTP endpoint.
//
// Usage:
//
//	amber-serve -data data.nt -addr :8080
//	amber-serve -snapshot db.snap -cache 1024 -max-concurrent 32 -timeout 30s
//	amber-serve -data data.nt -wal-dir ./wal -fsync always
//
// Query it with any SPARQL-over-HTTP client:
//
//	curl 'http://localhost:8080/sparql' --data-urlencode \
//	    'query=SELECT ?s WHERE { ?s <http://p> <http://o> . }'
//
// Mutate it with SPARQL 1.1 Update (INSERT DATA, DELETE DATA, CLEAR,
// LOAD); every update, CLEAR included, joins one commit queue, and
// queries keep running and never see partial updates:
//
//	curl 'http://localhost:8080/sparql' --data-urlencode \
//	    'update=INSERT DATA { <http://s> <http://p> <http://o2> . }'
//
// Durability: without -wal-dir, updates live only in memory and vanish on
// restart. With -wal-dir, every update batch is written to a write-ahead
// log (fsynced per -fsync) before it is acknowledged; starting or
// reloading replays the log, so acknowledged updates survive crashes.
// Once the database checkpoints (after compaction, or via DB.Checkpoint),
// the checkpointed snapshot in -wal-dir supersedes -data/-snapshot as the
// base.
//
// Signals: SIGINT/SIGTERM drain in-flight requests for up to 15s and
// exit; SIGHUP reloads the data file or snapshot and hot-swaps it in
// without dropping in-flight queries (with -wal-dir, logged live updates
// are replayed on top; without it they are discarded with a warning).
//
// Observability: /metrics serves Prometheus text exposition, /stats a
// JSON summary, /debug/traces the most recent request traces, and
// /debug/queries the in-flight query table with live resource counters.
// -slow-query logs slow requests as JSON lines (-slow-query-log appends
// to a file; rotate it with logrotate's copytruncate), and -debug-addr
// starts a separate pprof-only listener (keep it off the public
// address).
//
// Governance: POST /admin/queries/{id}/cancel kills an in-flight query.
// On the public listener it requires -admin-token; -admin-addr starts a
// private listener where it is ungated. -max-query-visits caps any
// single query's engine work. /readyz reports 503 while a SIGHUP reload
// is swapping databases, for load-balancer draining; /healthz stays
// pure liveness.
//
// Replication: with -wal-dir, the server is automatically a replication
// primary — followers pull its WAL from /repl/stream and their acks gate
// checkpoint truncation (bounded by -repl-retain-seqs). Start a follower
// with -follow=<primary-url> plus its own -wal-dir: it bootstraps
// (snapshot resync if needed), tails the primary's WAL, and serves reads
// at an observable staleness (X-Epoch on every read; X-Min-Epoch waits
// up to 2s for read-your-writes). Followers answer updates
// with 421 pointing at the primary and ignore SIGHUP (their state is
// defined by the stream, not a source file).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	amber "repro"
	"repro/internal/repl"
	"repro/internal/server"
)

// shutdownGrace is how long SIGINT/SIGTERM wait for in-flight requests
// to drain before the server closes.
const shutdownGrace = 15 * time.Second

// pprofMux serves the net/http/pprof handlers on an explicit mux, so the
// debug listener exposes profiling and nothing else (in particular not
// whatever third parties registered on http.DefaultServeMux).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataPath = flag.String("data", "", "RDF data file (N-Triples, prefixed names allowed)")
		snapshot = flag.String("snapshot", "", "binary snapshot to load instead of -data")

		cacheSize = flag.Int("cache", 256, "result cache entries (-1 disables)")
		maxConc   = flag.Int("max-concurrent", 0, "max concurrent query executions (0 = 2×GOMAXPROCS)")
		queueWait = flag.Duration("queue-wait", 100*time.Millisecond, "how long a request may wait for an execution slot")
		timeout   = flag.Duration("timeout", 60*time.Second, "default per-query time constraint (client-requested timeouts are capped at the larger of this and 5m)")

		compactAt = flag.Int("compact-threshold", 0, "delta entries (adds+tombstones) that trigger background compaction (0 = default 8192, negative disables)")
		allowLoad = flag.Bool("allow-load", false, "permit LOAD <file> in update requests (reads server-local files)")

		walDir = flag.String("wal-dir", "", "write-ahead log directory: log updates before acknowledging and replay them on start/reload (empty = in-memory updates)")
		fsync  = flag.String("fsync", "always", "WAL fsync policy: always, never, or interval=<duration> (with -wal-dir)")

		follow     = flag.String("follow", "", "run as a read-only replication follower of this primary base URL (requires -wal-dir for the local replica state)")
		followerID = flag.String("follower-id", "", "follower identity in the primary's ack registry (default hostname:waldir)")
		replRetain = flag.Uint64("repl-retain-seqs", 1<<20, "max WAL records a lagging follower may pin against checkpoint truncation (primary side)")

		slowQuery    = flag.Duration("slow-query", 0, "log queries at least this slow as JSON lines (0 disables)")
		slowQueryLog = flag.String("slow-query-log", "", "slow-query log file (default stderr; appended)")
		debugAddr    = flag.String("debug-addr", "", "separate listen address for net/http/pprof (keep it private; empty disables)")

		adminAddr  = flag.String("admin-addr", "", "separate private listen address for the governance surface: /debug/queries plus ungated query cancellation (empty disables)")
		adminToken = flag.String("admin-token", "", "token enabling POST /admin/queries/{id}/cancel on the public listener (X-Admin-Token or bearer auth)")
		maxVisits  = flag.Uint64("max-query-visits", 0, "cancel any query whose match loop visits more than this many vertices (0 = unlimited)")
	)
	flag.Parse()

	cfg := server.Config{
		CacheSize:      *cacheSize,
		MaxConcurrent:  *maxConc,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		AllowLoad:      *allowLoad,
		SlowQuery:      *slowQuery,
		AdminToken:     *adminToken,
		MaxQueryVisits: *maxVisits,
	}
	if *slowQuery > 0 && *slowQueryLog != "" {
		// O_APPEND keeps every write at the file's current end, so an
		// external logrotate copytruncate needs no signal to this process.
		f, err := os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amber-serve: opening slow-query log:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SlowQueryOut = f
	}

	src := source{data: *dataPath, snapshot: *snapshot, walDir: *walDir, fsync: *fsync}
	rep := replConfig{follow: *follow, followerID: *followerID, retainSeqs: *replRetain}
	if err := run(*addr, *debugAddr, *adminAddr, src, *compactAt, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "amber-serve:", err)
		os.Exit(1)
	}
}

// source is where the served database comes from: the RDF file or binary
// snapshot base, plus the optional write-ahead log layered on top.
type source struct {
	data     string
	snapshot string
	walDir   string
	fsync    string
}

// replConfig is the replication role selection: follow set = follower;
// otherwise a -wal-dir server is a primary.
type replConfig struct {
	follow     string
	followerID string
	retainSeqs uint64
}

// loadBase opens the database from whichever base was configured, without
// any WAL attachment.
func (s source) loadBase() (*amber.DB, error) {
	switch {
	case s.snapshot != "":
		return amber.OpenSnapshotFile(s.snapshot)
	case s.data != "":
		return amber.OpenFile(s.data)
	default:
		return nil, fmt.Errorf("missing -data or -snapshot")
	}
}

// open loads the database: durable (base + WAL replay) when -wal-dir is
// set, plain in-memory otherwise.
func (s source) open() (*amber.DB, error) {
	if s.walDir == "" {
		return s.loadBase()
	}
	db, err := amber.OpenDurable(s.walDir, &amber.DurabilityOptions{
		Fsync:               s.fsync,
		CheckpointOnCompact: true,
		Bootstrap:           s.loadBase,
	})
	if err != nil {
		return nil, err
	}
	if d := db.Durability(); d.Replayed > 0 {
		log.Printf("replayed %d WAL record(s) from %s", d.Replayed, s.walDir)
	}
	return db, nil
}

func run(addr, debugAddr, adminAddr string, src source, compactAt int, cfg server.Config, rep replConfig) error {
	start := time.Now()
	var (
		db       *amber.DB
		err      error
		follower *repl.Follower
		// srvRef late-binds the follower's swap hook: the follower exists
		// before the server that must hot-swap on its resyncs.
		srvRef atomic.Pointer[server.Server]
	)
	if rep.follow != "" {
		if src.walDir == "" {
			return fmt.Errorf("-follow requires -wal-dir for the local replica state")
		}
		follower, err = repl.NewFollower(repl.FollowerOptions{
			Dir:                 src.walDir,
			Primary:             rep.follow,
			ID:                  rep.followerID,
			Fsync:               src.fsync,
			CheckpointOnCompact: true,
			OnSwap: func(db *amber.DB) {
				if s := srvRef.Load(); s != nil {
					s.Swap(db)
				}
			},
			Logf: log.Printf,
		})
		if err != nil {
			return err
		}
		db = follower.DB()
		cfg.Follower = follower
		log.Printf("following %s as %q from cursor %d", rep.follow, follower.ID(), follower.Cursor())
	} else {
		db, err = src.open()
		if err != nil {
			return err
		}
		if src.walDir != "" {
			primary, perr := repl.NewPrimary(db, repl.PrimaryOptions{RetainSeqs: rep.retainSeqs})
			if perr != nil {
				return perr
			}
			cfg.Replication = primary
			log.Printf("replication primary enabled (stream at /repl/stream, retain %d seqs past min ack)", rep.retainSeqs)
		}
	}
	if compactAt != 0 {
		db.SetCompactThreshold(compactAt)
	}
	st := db.Stats()
	log.Printf("loaded %d triples (%d vertices, %d edges) in %s",
		st.Triples, st.Vertices, st.Edges, time.Since(start).Round(time.Millisecond))

	srv := server.New(db, cfg)
	srvRef.Store(srv)

	if follower != nil {
		fctx, fcancel := context.WithCancel(context.Background())
		defer fcancel()
		go func() {
			if rerr := follower.Run(fctx); rerr != nil && fctx.Err() == nil {
				log.Printf("replication follower stopped: %v", rerr)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving SPARQL on %s (endpoints: /sparql /stats /metrics /debug/traces /debug/queries /healthz /readyz)", addr)
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			errc <- err
		}
	}()

	if adminAddr != "" {
		// The governance surface on its own listener skips the token gate;
		// bind it to localhost or a private network.
		adm := &http.Server{
			Addr:              adminAddr,
			Handler:           srv.AdminHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("serving governance on %s (endpoints: /debug/queries /admin/queries/{id}/cancel /healthz /readyz)", adminAddr)
			if err := adm.ListenAndServe(); err != http.ErrServerClosed {
				errc <- fmt.Errorf("admin listener: %w", err)
			}
		}()
		defer adm.Close() //nolint:errcheck // best-effort teardown on exit
	}

	if debugAddr != "" {
		// pprof stays on its own listener so profiling never rides the
		// public SPARQL address; bind it to localhost or a private net.
		dbg := &http.Server{
			Addr:              debugAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("serving pprof on %s/debug/pprof/", debugAddr)
			if err := dbg.ListenAndServe(); err != http.ErrServerClosed {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		defer dbg.Close() //nolint:errcheck // best-effort teardown on exit
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				switch {
				case follower != nil:
					// A follower's state is defined by the primary's WAL, not
					// a local source; nothing sensible to reload.
					log.Printf("SIGHUP ignored in follower mode")
				case cfg.Replication != nil:
					// A reload would swap in a database whose log the primary
					// wrapper no longer tracks, silently breaking the stream.
					log.Printf("SIGHUP ignored while serving as a replication primary")
				default:
					reload(srv, src, compactAt)
				}
				continue
			}
			log.Printf("%s received, draining for up to %s", sig, shutdownGrace)
			ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			err := httpSrv.Shutdown(ctx)
			cancel()
			srv.DB().Close() //nolint:errcheck // final WAL sync; nothing to do on error
			return err
		}
	}
}

// reload rebuilds the database from its source and hot-swaps it in.
// In-flight queries finish against the generation they started on.
//
// With -wal-dir, live updates applied over HTTP are in the WAL: the old
// log is closed (briefly failing concurrent updates rather than losing
// them) and the reload replays it on top of the fresh base. Without
// -wal-dir the updates exist nowhere but memory and are discarded —
// reload warns when that happens (Save the merged view first to keep
// them).
func reload(srv *server.Server, src source, compactAt int) {
	// Drop readiness for the duration: /readyz answers 503 so a load
	// balancer drains this instance while the replacement loads.
	srv.SetReady(false)
	defer srv.SetReady(true)
	start := time.Now()
	old := srv.DB()
	if src.walDir != "" {
		// Stop the old generation from appending so the reload owns the
		// log. From here until the swap, updates shed with 503 (retryable);
		// reads are unaffected.
		if err := old.Close(); err != nil {
			log.Printf("reload: closing WAL: %v", err)
		}
	} else if g := old.Generation(); g.Updates > 0 {
		log.Printf("reload: discarding %d live update batch(es) (delta %d adds / %d tombstones) not present in the source",
			g.Updates, g.DeltaAdds, g.DeltaTombstones)
	}
	db, err := src.open()
	if err != nil {
		if src.walDir != "" {
			log.Printf("reload failed, keeping current database WITH ITS WAL CLOSED (updates will fail until a successful reload): %v", err)
		} else {
			log.Printf("reload failed, keeping current database: %v", err)
		}
		return
	}
	if compactAt != 0 {
		db.SetCompactThreshold(compactAt)
	}
	gen := srv.Swap(db)
	st := db.Stats()
	log.Printf("hot-swapped to generation %d: %d triples in %s",
		gen, st.Triples, time.Since(start).Round(time.Millisecond))
}
