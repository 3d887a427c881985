package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesHarness keeps BENCHMARK.json and the harness's
// metric tables in step: same workloads, same names, same units, in the
// same order, and bounds within the driver's limits.
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q [%q]: name or unit outside the driver's alphabet", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s metric %s is listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds is %d", c.RunSeconds)
	}
}

// TestSmoke runs every workload at the short scale, untraced and traced,
// and checks that each emits exactly its declared metrics, that nothing
// failed, and that the trace file is well formed.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, short: true, out: out}
			res, err := measure(o, name)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.name, m.Value)
				}
			}
			if trace == 1 {
				checkLayers(t, name, res)
				checkTrace(t, filepath.Join(out, "trace.jsonl"))
			}
		}
	}
}

// checkLayers checks the per-layer numbers that show a workload does
// what it is for: the hot workload hits the result cache, the cold one
// never does, and the write workloads reach the write path's layers.
func checkLayers(t *testing.T, name string, res *result) {
	t.Helper()
	v := func(m string) float64 { return res.Metrics[m].Value }
	switch name {
	case "serve-hot":
		if v("server.result_cache_hit_ratio") < 0.99 {
			t.Errorf("serve-hot: result cache hit ratio %v, want at least 0.99", v("server.result_cache_hit_ratio"))
		}
	case "match-cold":
		if v("server.result_cache_hit_ratio") > 0.01 {
			t.Errorf("match-cold: result cache hit ratio %v, want at most 0.01", v("server.result_cache_hit_ratio"))
		}
	case "churn-durable":
		for _, m := range []string{"core.compactions", "core.checkpoints", "wal.fsyncs", "sparql.parse_update_s", "core.mutate_s", "core.reopen_s"} {
			if v(m) <= 0 {
				t.Errorf("churn-durable: %s is %v", m, v(m))
			}
		}
	case "bulk-load":
		for _, m := range []string{"wal.replay_s", "delta.apply_s", "engine.overlay_probes", "core.reopen_s"} {
			if v(m) <= 0 {
				t.Errorf("bulk-load: %s is %v", m, v(m))
			}
		}
	}
	for _, m := range []string{"rdf.decode_s", "multigraph.build_s", "index.build_s", "engine.match_s", "results.write_s", "sparql.parse_s"} {
		if v(m) <= 0 {
			t.Errorf("%s: %s is %v", name, m, v(m))
		}
	}
}

// checkTrace parses the span file: ids are line numbers, every child
// lies inside its parent and belongs to its parent's request.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start || s.Name == "" {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d names parent %d, which does not precede it", i, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Request != p.Request {
			t.Errorf("span %d %+v lies outside its parent %+v", i, s, p)
		}
	}
}
