// Package amber is AMbER — an Attributed Multigraph Based Engine for RDF
// querying, a from-scratch Go reproduction of the system described in
// "Querying RDF Data Using A Multigraph-based Approach" (EDBT 2016).
//
// AMbER answers SPARQL SELECT/WHERE queries by representing the RDF data
// as a directed, vertex-attributed multigraph, indexing it offline with
// three structures (an attribute inverted index, an R-tree of vertex
// signature synopses, and per-vertex neighbourhood tries), and reducing
// query answering to sub-multigraph homomorphism search.
//
// Typical use:
//
//	db, err := amber.OpenFile("data.nt")
//	...
//	p, err := db.Prepare(`SELECT ?who WHERE { ?who <http://y/livedIn> <http://x/US> . }`)
//	...
//	for b, err := range p.All(ctx, nil) {
//		...
//	}
//
// The WHERE clause supports basic graph patterns (with PREFIX, `a` and
// `;`/`,` abbreviations), plus the extension fragment the paper lists as
// future work: ASK, DISTINCT, UNION, a FILTER subset (=, !=, regex
// substring, strstarts), LIMIT and OFFSET. OPTIONAL and GROUP BY remain
// out of scope.
//
// Results are typed: bindings are Terms (IRI, blank node, or literal
// with datatype and language tag), surfaced through the context-aware
// cursor API (QueryContext/Rows) or the range-over-func form (All), both
// over one execution path. Single-occurrence object variables may bind
// literals (`SELECT ?name WHERE { ?x <…/name> ?name }`); variables that
// join across patterns bind graph vertices, as in the paper.
package amber

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ErrTimeout is returned when a query exceeds QueryOptions.Timeout (or a
// context deadline during a ctx-aware execution).
var ErrTimeout = errors.New("amber: query timeout exceeded")

// mapExecErr normalizes engine abort errors to the public surface:
// deadline expiry becomes ErrTimeout, a caller's cancellation stays
// context.Canceled, everything else passes through.
func mapExecErr(err error) error {
	if err == engine.ErrDeadlineExceeded || errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// DB is an AMbER database: the data multigraph plus its index ensemble,
// and — since the live-update subsystem — a mutation path. Open one with
// Open, OpenFile or OpenString. Reads are lock-free MVCC: every query
// pins an immutable snapshot, so a DB is safe for any mix of concurrent
// readers and writers (Update/Mutate), and no query ever observes a
// partially applied update.
type DB struct {
	store    *core.Store
	prefixes *rdf.PrefixMap
}

// WithPrefixes returns a handle sharing this database but with the given
// prefixes pre-bound for every query, so query texts may use prefixed
// names without repeating PREFIX declarations. Declarations inside a
// query override the defaults. The original handle is unaffected.
func (db *DB) WithPrefixes(prefixes map[string]string) *DB {
	pm := &rdf.PrefixMap{}
	if db.prefixes != nil {
		pm = db.prefixes.Clone()
	}
	for p, ns := range prefixes {
		pm.Set(p, ns)
	}
	return &DB{store: db.store, prefixes: pm}
}

// parse parses query text with the handle's default prefixes.
func (db *DB) parse(src string) (*sparql.Query, error) {
	return sparql.ParseWith(src, db.prefixes)
}

// Open loads RDF data (N-Triples, with @prefix/PREFIX directives and
// prefixed names allowed) from r and builds the offline structures.
func Open(r io.Reader) (*DB, error) {
	st, err := core.NewStoreFromReader(r)
	if err != nil {
		return nil, err
	}
	return &DB{store: st}, nil
}

// OpenFile loads RDF data from a file.
func OpenFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Open(f)
}

// OpenString loads RDF data held in a string.
func OpenString(data string) (*DB, error) {
	return Open(strings.NewReader(data))
}

// QueryOptions tune query execution. The zero value (or a nil pointer)
// means no limit and no timeout.
type QueryOptions struct {
	// Limit caps the number of result rows (0 = all). A LIMIT clause in
	// the query text also applies; the tighter bound wins.
	Limit int
	// Timeout bounds execution; exceeding it returns ErrTimeout. The
	// paper's experiments use 60 s.
	Timeout time.Duration
}

// engineOptions converts the options to engine form (the query's own
// LIMIT clause is applied inside core; the tighter bound wins). It
// captures the timeout deadline from the moment it is called, so call it
// at execution start — after parsing and preparation — to keep parse
// cost from eating the query's time budget. ctx, when non-nil, is polled
// by the engine alongside the deadline, so callers can cancel in-flight
// work; Timeout remains a plain deadline, so the two compose (the
// tighter bound aborts first).
func (o *QueryOptions) engineOptions(ctx context.Context) engine.Options {
	var e engine.Options
	e.Ctx = ctx
	if o != nil {
		e.Limit = o.Limit
		if o.Timeout != 0 {
			// A negative timeout yields an already-expired deadline, which the
			// engine reports as a timeout — useful for tests and dry runs.
			e.Deadline = time.Now().Add(o.Timeout)
		}
	}
	return e
}

// Count returns the number of solutions without materializing them. For
// queries in the paper's core fragment (single BGP, no DISTINCT, FILTER
// or OFFSET) the count factorizes over satellite vertices and is far
// cheaper than enumerating rows; extension queries fall back to
// enumeration.
func (db *DB) Count(sparqlText string, opts *QueryOptions) (uint64, error) {
	p, err := db.Prepare(sparqlText)
	if err != nil {
		return 0, err
	}
	return p.Count(context.TODO(), opts)
}

// Prepared is a query parsed and translated once against a DB, ready to
// execute many times. Preparation covers SPARQL parsing, query-multigraph
// construction for every UNION branch, and FILTER compilation — the hot
// path of repeated execution (a benchmark's inner loop, a library
// caller's repeated query) skips all of it. A Prepared is tied to the DB
// that produced it and, like the DB, is safe for concurrent use.
type Prepared struct {
	cp    *core.PreparedQuery
	index map[string]int // projection name → position, shared by every row
}

// Prepare parses and prepares a SPARQL SELECT or ASK query for repeated
// execution with varying options.
func (db *DB) Prepare(sparqlText string) (*Prepared, error) {
	pq, err := db.parse(sparqlText)
	if err != nil {
		return nil, err
	}
	cp, err := db.store.PrepareQuery(pq)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(cp.Projection()))
	for i, v := range cp.Projection() {
		index[v] = i
	}
	return &Prepared{cp: cp, index: index}, nil
}

// Projection returns the projected variable names, in SELECT order
// (without '?').
func (p *Prepared) Projection() []string {
	return append([]string(nil), p.cp.Projection()...)
}

// Shape returns the query-shape class of the first branch's current plan
// ("star", "chain", "cyclic", ...), for observability labels. Live
// updates may re-plan, so successive calls can differ.
func (p *Prepared) Shape() string { return p.cp.Shape() }

// Count counts solutions of the prepared query; see DB.Count. ctx, when
// non-nil, cancels the count and carries the caller's trace, as for All.
func (p *Prepared) Count(ctx context.Context, opts *QueryOptions) (uint64, error) {
	n, err := p.cp.Count(opts.engineOptions(ctx))
	return n, mapExecErr(err)
}
