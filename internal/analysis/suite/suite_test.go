package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// repoRoot locates the module root from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join(wd, "..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected module root at %s: %v", root, err)
	}
	return root
}

// TestSuiteCleanOverTree is the merge gate's ground truth: the full
// analyzer suite, Global hooks included, reports nothing on the
// production tree. CI runs the same suite through go vet per package;
// this test additionally exercises the cross-package rules a per-unit
// run cannot see.
func TestSuiteCleanOverTree(t *testing.T) {
	pkgs, err := analysis.Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	diags, err := analysis.Run(pkgs, suite.Analyzers)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("tree not clean: %s", d)
	}
}

// copyModule copies the production module (go.mod plus every non-test
// .go file, skipping nested testdata modules) into dst.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".github":
				if rel != "." {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}

// mutate rewrites one file in the copied module, asserting the
// replacement target exists (so refactors that move the code update
// this test instead of silently weakening it).
func mutate(t *testing.T, dir, rel, old, new string) {
	t.Helper()
	path := filepath.Join(dir, rel)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s no longer contains the expected snippet %q — update the seeded regression", rel, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeededRegressions flips real invariants in a copy of the
// production tree and asserts the suite catches each one: the analyzers
// guard the actual code, not just the golden files.
func TestSeededRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-type-checks the module")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	copyModule(t, root, dir)

	// Regression 1: return a wal error from core without the
	// ErrDurability wrap (the exact bug this PR fixed in SyncWAL).
	mutate(t, dir, "internal/core/durable.go",
		`	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// Checkpoint`,
		`	return d.log.Sync()
}

// Checkpoint`)

	// Regression 2: drop the context poll from the engine's core
	// recursion, making a runaway query uncancellable.
	mutate(t, dir, "internal/engine/engine.go",
		`func (m *matcher) homomorphicMatch(ci int, comp *plan.ComponentPlan, pos int) {
	if m.stopped || m.poll() {
		return
	}`,
		`func (m *matcher) homomorphicMatch(ci int, comp *plan.ComponentPlan, pos int) {
	if m.stopped {
		return
	}`)

	// Regression 3: publish a commit group without waiting for the
	// overlapped fsync's result, acknowledging writes the disk may lack.
	mutate(t, dir, "internal/core/live.go",
		`	if syncErr != nil {
		if werr := <-syncErr; werr != nil {
			l.mu.Unlock()
			return fmt.Errorf("%w: %w", ErrDurability, werr)
		}
	}
`, ``)

	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading mutated tree: %v", err)
	}
	diags, err := analysis.Run(pkgs, suite.Analyzers)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	expect := map[string]string{
		"errdurability":  "without ErrDurability",
		"hotloop":        "homomorphicMatch recurses but never polls",
		"publishbarrier": "snapshot published while the error of WAL barrier Sync is unchecked",
	}
	for analyzer, substr := range expect {
		found := false
		for _, d := range diags {
			if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("seeded %s regression not caught; got %d diagnostics:", analyzer, len(diags))
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		}
	}
}
