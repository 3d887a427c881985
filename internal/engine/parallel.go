package engine

import (
	"runtime"
	"sync"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/plan"
)

// CountParallel counts embeddings like Count but fans the recursion out
// over worker goroutines — the "parallel processing version" the paper's
// conclusion sketches as future work. Parallelism is over the initial
// candidate set of each component: every CandInit vertex roots an
// independent recursion branch (branches never share matcher state), so
// the partition is embarrassingly parallel and the per-component counts
// sum exactly as in the serial algorithm. All workers share the plan's
// immutable candidate constraints.
//
// workers ≤ 1 falls back to the serial Count. The result is identical to
// Count for any worker count and any planner.
func CountParallel(r index.Reader, p *plan.Plan, opts Options, workers int) (uint64, error) {
	if workers <= 1 {
		return Count(r, p, opts)
	}
	if workers > runtime.GOMAXPROCS(0)*4 {
		workers = runtime.GOMAXPROCS(0) * 4
	}
	master, ok := prepare(r, p, opts)
	if master.expired {
		return 0, master.abortErr
	}
	defer master.flushMeter()
	if !ok {
		return 0, nil
	}
	if len(p.Query.Vars) == 0 {
		if master.stats != nil {
			master.stats.Embeddings = 1
		}
		return 1, nil
	}

	total := uint64(1)
	for ci := range p.Components {
		cands := master.initialCandidates(ci)
		if len(cands) == 0 {
			return 0, nil
		}
		c, err := countComponentParallel(r, p, opts, ci, cands, workers)
		if err != nil {
			return 0, err
		}
		total = mulSat(total, c)
		if total == 0 {
			break
		}
	}
	if opts.Limit > 0 && total > uint64(opts.Limit) {
		total = uint64(opts.Limit)
	}
	if master.stats != nil {
		master.stats.Embeddings = total
	}
	return total, nil
}

// countComponentParallel distributes the initial candidates of component
// ci across workers, each running an independent matcher.
func countComponentParallel(r index.Reader, p *plan.Plan, opts Options, ci int, cands []dict.VertexID, workers int) (uint64, error) {
	if workers > len(cands) {
		workers = len(cands)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    uint64
		firstErr error
	)
	// Interleaved partition balances skewed candidate costs better than
	// contiguous chunks.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stats are not threaded into workers: per-worker counters
			// would race; the aggregate embedding count is set by the
			// caller. The meter, unlike Stats, is shared — its counters
			// are atomics and each worker flushes only its own local
			// deltas into it.
			workerOpts := opts
			workerOpts.Stats = nil
			m, ok := prepare(r, p, workerOpts)
			if !ok || m.expired {
				if m.expired {
					mu.Lock()
					if firstErr == nil {
						firstErr = m.abortErr
					}
					mu.Unlock()
				}
				return
			}
			defer m.flushMeter()
			var sub uint64
			for i := w; i < len(cands); i += workers {
				n, err := m.countFromInitial(ci, cands[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				sub = addSat(sub, n)
			}
			mu.Lock()
			total = addSat(total, sub)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}
