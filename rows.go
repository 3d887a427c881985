package amber

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/core"
)

// Rows is a pull-based cursor over a query's solutions, in the style of
// database/sql: Next advances, Binding/Scan read the current row, Err
// reports what ended the iteration, Close releases resources. A Rows is
// not safe for concurrent use.
//
//	rows, err := db.QueryContext(ctx, query, nil)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var who Term
//		if err := rows.Scan(&who); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Execution runs in a background goroutine that the cursor pulls from;
// Close cancels it, so abandoning a large result set does not leak work.
type Rows struct {
	vars   []string
	parent context.Context // the caller's context, for Close's error triage
	cancel context.CancelFunc
	ch     chan Binding
	errc   chan error

	cur      Binding
	started  bool
	err      error
	finished bool
	closed   bool
}

// queryRows starts the producer goroutine for one execution.
func queryRows(ctx context.Context, p *Prepared, opts *QueryOptions) *Rows {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	r := &Rows{
		vars:   p.cp.Projection(),
		parent: parent,
		cancel: cancel,
		ch:     make(chan Binding),
		errc:   make(chan error, 1),
	}
	go func() {
		qerr := p.each(ctx, opts, func(b Binding) bool {
			select {
			case r.ch <- b:
				return true
			case <-ctx.Done():
				return false
			}
		})
		r.errc <- qerr
		close(r.ch)
	}()
	return r
}

// Vars returns the projected variable names in SELECT order.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next row, reporting false at the end of the
// result set or on error (consult Err to distinguish).
func (r *Rows) Next() bool {
	if r.finished || r.closed {
		return false
	}
	b, ok := <-r.ch
	if !ok {
		r.finish()
		return false
	}
	r.cur, r.started = b, true
	return true
}

// finish collects the producer's verdict; called once at end of stream.
func (r *Rows) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.err = <-r.errc
}

// Binding returns the current row. It is only valid after a true Next.
func (r *Rows) Binding() Binding { return r.cur }

// Scan copies the current row into dest, one target per projected
// variable in SELECT order. Supported targets: *Term (the full typed
// term; zero Term when unbound), *string (the term's text — IRI, blank
// label or lexical form; empty when unbound), *any (Term or nil), and
// nil to skip a column.
func (r *Rows) Scan(dest ...any) error {
	if !r.started {
		return errors.New("amber: Scan called before Next")
	}
	if len(dest) != len(r.vars) {
		return fmt.Errorf("amber: Scan expected %d destinations, got %d", len(r.vars), len(dest))
	}
	for i, d := range dest {
		t, bound := r.cur.At(i)
		switch d := d.(type) {
		case nil:
		case *Term:
			*d = t
		case *string:
			*d = t.Value
		case *any:
			if bound {
				*d = t
			} else {
				*d = nil
			}
		default:
			return fmt.Errorf("amber: unsupported Scan destination %T for ?%s", d, r.vars[i])
		}
	}
	return nil
}

// Err returns the error that ended iteration, if any. Close-induced
// cancellation is not an error; a parent-context cancellation is.
func (r *Rows) Err() error { return r.err }

// Close cancels the execution and releases the cursor. It is idempotent
// and safe to call at any point; rows already read remain valid.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	// Drain so the producer's send never blocks, then collect its verdict.
	for range r.ch {
	}
	r.finish()
	// The cancellation this Close just triggered is not a query failure —
	// but a cancellation of the caller's own context is, and must survive
	// Close (the caller may check Err or Close's return to decide whether
	// the rows it read were the complete result set).
	if errors.Is(r.err, context.Canceled) && r.parent.Err() == nil {
		r.err = nil
	}
	return r.err
}

// ---- context-first query API -------------------------------------------

// QueryContext runs a SPARQL SELECT query and returns a cursor over its
// solutions. The context cancels in-flight execution: when it is done,
// the engine aborts within its polling interval and the cursor's Err
// reports ctx.Err(). opts may be nil; a non-zero opts.Timeout applies in
// addition to any context deadline (the tighter bound wins) and maps to
// ErrTimeout.
func (db *DB) QueryContext(ctx context.Context, sparqlText string, opts *QueryOptions) (*Rows, error) {
	p, err := db.PrepareContext(ctx, sparqlText)
	if err != nil {
		return nil, err
	}
	return p.QueryContext(ctx, opts)
}

// PrepareContext parses and prepares a query for repeated execution; see
// Prepare. The context only gates preparation (parsing and planning are
// CPU-bound and quick); pass the per-execution context to QueryContext.
func (db *DB) PrepareContext(ctx context.Context, sparqlText string) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return db.Prepare(sparqlText)
}

// QueryContext executes the prepared query and returns a cursor; see
// DB.QueryContext.
func (p *Prepared) QueryContext(ctx context.Context, opts *QueryOptions) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return queryRows(ctx, p, opts), nil
}

// All returns the query's solutions as a Go 1.23 range-over-func
// sequence of (Binding, error) pairs:
//
//	for b, err := range prepared.All(ctx, nil) {
//		if err != nil { ... }
//		name, _ := b.Get("name")
//	}
//
// A non-nil error is yielded at most once, as the final element. Breaking
// out of the loop stops execution immediately — no goroutine or cursor
// needs closing.
func (p *Prepared) All(ctx context.Context, opts *QueryOptions) iter.Seq2[Binding, error] {
	return func(yield func(Binding, error) bool) {
		stopped := false
		err := p.each(ctx, opts, func(b Binding) bool {
			if !yield(b, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Binding{}, err)
		}
	}
}

// All is the range-over-func form of QueryContext; see Prepared.All.
func (db *DB) All(ctx context.Context, sparqlText string, opts *QueryOptions) iter.Seq2[Binding, error] {
	p, err := db.PrepareContext(ctx, sparqlText)
	if err != nil {
		return func(yield func(Binding, error) bool) {
			yield(Binding{}, err)
		}
	}
	return p.All(ctx, opts)
}

// each streams typed rows to fn, stopping early when fn returns false.
// It is the common core of every row-producing execution surface.
func (p *Prepared) each(ctx context.Context, opts *QueryOptions, fn func(Binding) bool) error {
	vars := p.cp.Projection()
	err := p.cp.Execute(opts.engineOptions(ctx), func(sol core.Solution) bool {
		return fn(Binding{vars: vars, index: p.index, terms: sol})
	})
	return mapExecErr(err)
}

// QueryIterContext streams typed rows to fn, stopping early when fn
// returns false. Each row costs one allocation (its terms slice); this
// is the path the HTTP server uses.
func (p *Prepared) QueryIterContext(ctx context.Context, opts *QueryOptions, fn func(Binding) bool) error {
	return p.each(ctx, opts, fn)
}

// ---- ASK ----------------------------------------------------------------

// IsAsk reports whether the prepared query is an ASK query. Execution
// entry points still work on one (it behaves as a SELECT with an empty
// projection); Ask is the intended way to run it.
func (p *Prepared) IsAsk() bool { return p.cp.Query().Ask }

// Ask reports whether the query has at least one solution. The engine
// short-circuits after the first match (a count with limit one), so ASK
// on a huge result set is cheap. Any query form is accepted, not only
// ASK syntax.
func (p *Prepared) Ask(opts *QueryOptions) (bool, error) {
	return p.AskContext(context.Background(), opts)
}

// AskContext is Ask with cancellation; see QueryContext for context
// semantics.
func (p *Prepared) AskContext(ctx context.Context, opts *QueryOptions) (bool, error) {
	ok, err := p.cp.Ask(opts.engineOptions(ctx))
	return ok, mapExecErr(err)
}

// Ask parses and runs a query as an existence check; see Prepared.Ask.
func (db *DB) Ask(sparqlText string, opts *QueryOptions) (bool, error) {
	return db.AskContext(context.Background(), sparqlText, opts)
}

// AskContext is Ask with cancellation.
func (db *DB) AskContext(ctx context.Context, sparqlText string, opts *QueryOptions) (bool, error) {
	p, err := db.PrepareContext(ctx, sparqlText)
	if err != nil {
		return false, err
	}
	return p.AskContext(ctx, opts)
}
