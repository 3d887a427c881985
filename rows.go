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
// The cursor pulls from Prepared.All; Close stops the execution, so
// abandoning a large result set does not leak work.
type Rows struct {
	vars []string
	next func() (Binding, error, bool)
	stop func()

	cur     Binding
	started bool
	err     error
	done    bool
}

// Vars returns the projected variable names in SELECT order.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next row, reporting false at the end of the
// result set or on error (consult Err to distinguish).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	b, err, ok := r.next()
	if !ok || err != nil {
		r.err = err
		r.Close() //nolint:errcheck // the error is r.err, reported by Err
		return false
	}
	r.cur, r.started = b, true
	return true
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

// Err returns the error that ended iteration, if any. Stopping early
// through Close is not an error; a cancellation of the caller's context
// is.
func (r *Rows) Err() error { return r.err }

// Close stops the execution and releases the cursor. It is idempotent
// and safe to call at any point; rows already read remain valid. It
// returns Err.
func (r *Rows) Close() error {
	if !r.done {
		r.done = true
		r.stop()
	}
	return r.err
}

// ---- context-first query API -------------------------------------------

// QueryContext runs a SPARQL SELECT query and returns a cursor over its
// solutions. The context cancels in-flight execution: when it is done,
// the engine aborts within its polling interval and the cursor's Err
// reports ctx.Err(), a passed deadline as ErrTimeout. opts may be nil; a
// non-zero opts.Timeout applies in addition to any context deadline (the
// tighter bound wins) and also maps to ErrTimeout.
func (db *DB) QueryContext(ctx context.Context, sparqlText string, opts *QueryOptions) (*Rows, error) {
	p, err := db.Prepare(sparqlText)
	if err != nil {
		return nil, err
	}
	return p.QueryContext(ctx, opts)
}

// QueryContext executes the prepared query and returns a cursor; see
// DB.QueryContext.
func (p *Prepared) QueryContext(ctx context.Context, opts *QueryOptions) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, mapExecErr(err)
	}
	next, stop := iter.Pull2(p.All(ctx, opts))
	return &Rows{vars: p.cp.Projection(), next: next, stop: stop}, nil
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
// needs closing. Each row costs one allocation (its terms slice). Every
// row-producing surface, the HTTP server included, runs through All.
func (p *Prepared) All(ctx context.Context, opts *QueryOptions) iter.Seq2[Binding, error] {
	return func(yield func(Binding, error) bool) {
		vars := p.cp.Projection()
		stopped := false
		eo, cancel := opts.engineOptions(ctx)
		defer cancel()
		err := p.cp.Execute(eo, func(sol core.Solution) bool {
			if !yield(Binding{vars: vars, index: p.index, terms: sol}, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Binding{}, mapExecErr(err))
		}
	}
}

// All is the range-over-func form of QueryContext; see Prepared.All.
func (db *DB) All(ctx context.Context, sparqlText string, opts *QueryOptions) iter.Seq2[Binding, error] {
	p, err := db.Prepare(sparqlText)
	if err != nil {
		return func(yield func(Binding, error) bool) {
			yield(Binding{}, err)
		}
	}
	return p.All(ctx, opts)
}

// ---- ASK ----------------------------------------------------------------

// IsAsk reports whether the prepared query is an ASK query. Execution
// entry points still work on one (it behaves as a SELECT with an empty
// projection); AskContext is the intended way to run it.
func (p *Prepared) IsAsk() bool { return p.cp.Query().Ask }

// AskContext reports whether the query has at least one solution. The
// engine short-circuits after the first match (a count with limit one),
// so ASK on a huge result set is cheap. Any query form is accepted, not
// only ASK syntax. See QueryContext for context semantics.
func (p *Prepared) AskContext(ctx context.Context, opts *QueryOptions) (bool, error) {
	eo, cancel := opts.engineOptions(ctx)
	defer cancel()
	ok, err := p.cp.Ask(eo)
	return ok, mapExecErr(err)
}

// AskContext parses and runs a query as an existence check; see
// Prepared.AskContext.
func (db *DB) AskContext(ctx context.Context, sparqlText string, opts *QueryOptions) (bool, error) {
	p, err := db.Prepare(sparqlText)
	if err != nil {
		return false, err
	}
	return p.AskContext(ctx, opts)
}
