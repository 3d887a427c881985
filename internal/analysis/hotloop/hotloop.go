// Package hotloop enforces the engine's hot-path discipline on
// functions that opt in with a //amber:hotloop directive: the inner
// search step must stay free of per-visit overhead (atomics, fmt, map
// writes, clock reads, make), and every recursive cycle through the marked
// set must call the throttled context poll so a runaway query stays
// cancellable.
//
// The matcher's contract is that per-visit bookkeeping accumulates in
// plain matcher fields and is flushed into shared atomics only at the
// poll cadence (pollMask). That keeps the visit step allocation-free and
// fence-free, and it makes the poll the single point where cancellation
// (client disconnect, timeout, admin kill, resource guard — all context
// cancellations) and meter flushing happen. Both halves rot easily: an
// innocent fmt.Sprintf in a diagnostic, a "just count it"
// atomic.AddUint64, or a new recursion path that forgets to poll each
// reintroduce a regression that is invisible in unit tests and obvious
// at a million visits per query.
//
// Rule V1 also looks across packages: a marked function may not call a
// function of another package that itself calls sync/atomic, such as a
// meter method that stores progress in an atomic.
// Each package's pass reports which of its functions call sync/atomic
// directly and which calls its marked functions make into other
// packages; the Global hook joins the two over the whole tree, so only
// whole-tree runs (amber-vet ./..., the suite test) see this half.
//
// Two directive forms:
//
//	//amber:hotloop       — the function is a hot search step; content
//	                        rules V1–V5 apply, and if it is recursive
//	                        (directly or mutually through other marked
//	                        functions) it must directly call a poll
//	                        function (rule P1).
//	//amber:hotloop poll  — the function IS the sanctioned amortized
//	                        slow path (the matcher's poll): exempt from the
//	                        content rules, target of rule P1.
package hotloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hotloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotloop",
	Doc: "//amber:hotloop functions must stay lean and poll for cancellation\n\n" +
		"Functions marked //amber:hotloop may not call sync/atomic, fmt, the time\n" +
		"package or make, nor write to maps (per-visit cost belongs in plain fields\n" +
		"and run-scoped scratch, flushed at the poll cadence). Marked functions that\n" +
		"recurse — directly or mutually through other marked functions — must\n" +
		"directly call a function marked //amber:hotloop poll, so every search\n" +
		"cycle stays cancellable.",
	Run:    run,
	Global: global,
}

// facts is one package's Run result, for the cross-package half of V1.
type facts struct {
	atomic   map[string]bool // full names of functions that call sync/atomic
	outCalls []outCall       // calls from marked functions into other packages
}

// outCall is one static call from a non-poll marked function to a
// function of another package.
type outCall struct {
	pos    token.Pos
	caller string
	callee string // full name, as types.Func.FullName renders it
}

// fnInfo is the per-marked-function record.
type fnInfo struct {
	decl  *ast.FuncDecl
	poll  bool
	calls map[*types.Func]bool // marked callees (cycle edges)
	polls bool                 // directly calls a poll function
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	fs := &facts{atomic: atomicCallers(pass)}

	// Collect the marked set first: cycle detection needs it complete.
	marked := map[*types.Func]*fnInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			args, ok := analysis.FuncDirective(fn, "hotloop")
			if !ok {
				continue
			}
			if args != "" && args != "poll" {
				pass.Reportf(fn.Pos(), "unknown //amber:hotloop argument %q (want nothing or \"poll\")", args)
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			marked[obj] = &fnInfo{decl: fn, poll: args == "poll"}
		}
	}
	for obj, fi := range marked {
		fi.calls = map[*types.Func]bool{}
		checkBody(pass, obj, fi, marked, fs)
	}

	// Rule P1: every non-poll marked function on a cycle within the
	// marked set must itself call a poll function. Per-member, not
	// per-cycle: a cycle with alternate edges can skip the one member
	// that polls, and a direct call is one line.
	for obj, fi := range marked {
		if fi.poll || fi.polls {
			continue
		}
		if reaches(marked, fi, obj, map[*types.Func]bool{}) {
			pass.Reportf(fi.decl.Pos(),
				"hot function %s recurses but never polls for cancellation: call the //amber:hotloop poll function so the search stays cancellable",
				obj.Name())
		}
	}
	return fs, nil
}

// atomicCallers returns the full names of the package's functions whose
// bodies call sync/atomic.
func atomicCallers(pass *analysis.Pass) map[string]bool {
	out := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			found := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !found {
					c := analysis.Callee(pass.TypesInfo, call)
					found = c != nil && analysis.IsPkg(c.Pkg(), "sync/atomic")
				}
				return !found
			})
			if found {
				out[obj.FullName()] = true
			}
		}
	}
	return out
}

// global reports the calls marked functions make into another package's
// functions that call sync/atomic.
func global(results []analysis.Result, report func(token.Pos, string)) {
	atomic := map[string]bool{}
	for _, r := range results {
		if fs, ok := r.Value.(*facts); ok {
			for name := range fs.atomic {
				atomic[name] = true
			}
		}
	}
	for _, r := range results {
		fs, ok := r.Value.(*facts)
		if !ok {
			continue
		}
		for _, c := range fs.outCalls {
			if atomic[c.callee] {
				report(c.pos, "call in hot function "+c.caller+" to "+c.callee+
					", which does atomic operations: per-visit counters belong in plain matcher fields, flushed by the poll path (flushMeter)")
			}
		}
	}
}

// reaches reports whether start is reachable from fi through marked-set
// call edges (i.e. fi's owner is on a cycle when fi is start's record).
func reaches(marked map[*types.Func]*fnInfo, fi *fnInfo, start *types.Func, seen map[*types.Func]bool) bool {
	for callee := range fi.calls {
		if callee == start {
			return true
		}
		if seen[callee] {
			continue
		}
		seen[callee] = true
		if next := marked[callee]; next != nil && reaches(marked, next, start, seen) {
			return true
		}
	}
	return false
}

// checkBody applies content rules V1–V5 to one marked function and
// records its call edges for P1.
func checkBody(pass *analysis.Pass, obj *types.Func, fi *fnInfo, marked map[*types.Func]*fnInfo, fs *facts) {
	info := pass.TypesInfo
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// delete(m, k) is a map write (V3's builtin case); make(...)
			// is a per-visit allocation (V5).
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch info.Uses[id] {
				case types.Universe.Lookup("delete"):
					if !fi.poll {
						pass.Reportf(n.Pos(), "map delete in hot function %s: map mutation in the search step defeats the flush-at-poll design (use a slice or move it out of the loop)", obj.Name())
					}
					return true
				case types.Universe.Lookup("make"):
					if !fi.poll {
						pass.Reportf(n.Pos(), "make in hot function %s allocates per visit: keep the buffer in matcher-owned scratch sized once per run (prepare)", obj.Name())
					}
					return true
				}
			}
			callee := analysis.Callee(info, n)
			if callee == nil {
				return true
			}
			if other := marked[callee]; other != nil {
				fi.calls[callee] = true
				if other.poll {
					fi.polls = true
				}
			}
			if fi.poll {
				return true // the poll function is the sanctioned slow path
			}
			if pkg := callee.Pkg(); pkg != nil && pkg != pass.Pkg.Types {
				fs.outCalls = append(fs.outCalls, outCall{pos: n.Pos(), caller: obj.Name(), callee: callee.FullName()})
			}
			switch {
			case analysis.IsPkg(callee.Pkg(), "sync/atomic"):
				pass.Reportf(n.Pos(),
					"atomic operation in hot function %s: per-visit counters belong in plain matcher fields, flushed by the poll path (flushMeter)", obj.Name())
			case isStdPkg(callee.Pkg(), "fmt"):
				pass.Reportf(n.Pos(),
					"fmt call in hot function %s allocates per visit: format outside the search step", obj.Name())
			case isStdPkg(callee.Pkg(), "time"):
				pass.Reportf(n.Pos(),
					"clock read in hot function %s: a timeout is a context deadline, polled every pollMask+1 steps by the poll function, not per visit", obj.Name())
			}
		case *ast.AssignStmt:
			if fi.poll {
				return true
			}
			for _, lhs := range n.Lhs {
				reportMapWrite(pass, info, obj, lhs)
			}
		case *ast.IncDecStmt:
			if fi.poll {
				return true
			}
			reportMapWrite(pass, info, obj, n.X)
		}
		return true
	})
}

// reportMapWrite flags m[k] appearing as an assignment target.
func reportMapWrite(pass *analysis.Pass, info *types.Info, obj *types.Func, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
		pass.Reportf(lhs.Pos(),
			"map write in hot function %s: map mutation in the search step costs a hash+possible grow per visit (use a slice indexed by vertex, as asg/satSets do)", obj.Name())
	}
}

// isStdPkg matches exactly the standard-library package path (unlike
// analysis.IsPkg it does not match by suffix or name, so a local
// package named "fmt" in testdata would still be its own package — but
// stdlib paths have no slash, so exact match is the right test).
func isStdPkg(pkg *types.Package, path string) bool {
	return pkg != nil && pkg.Path() == path
}
