package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// tinyConfig keeps the test fast: small corpora, few queries.
func tinyConfig() Config {
	return Config{
		Scale:           1,
		Universities:    1,
		Seed:            42,
		Timeout:         300 * time.Millisecond,
		QueriesPerPoint: 3,
		Sizes:           []int{4, 8},
	}
}

// cachedLUBM shares one dataset across the tests in this package; building
// all three engines repeatedly dominates test time otherwise.
var cachedLUBM *Dataset

func buildLUBM(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	if cachedLUBM != nil {
		return cachedLUBM
	}
	d, err := BuildDataset("LUBM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedLUBM = d
	return d
}

func TestBuildDatasetAllEngines(t *testing.T) {
	cfg := tinyConfig()
	d := buildLUBM(t, cfg)
	if d.Amber == nil || d.Store == nil || d.Graph == nil || d.Gen == nil {
		t.Fatal("dataset engines missing")
	}
	if d.Amber.Graph().NumTriples() == 0 {
		t.Error("empty dataset")
	}
	if _, err := BuildDataset("NOPE", cfg); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunQueryAllEnginesAgree(t *testing.T) {
	cfg := tinyConfig()
	d := buildLUBM(t, cfg)
	queries := d.Gen.Workload(workload.Complex, 5, 5)
	if len(queries) == 0 {
		t.Fatal("no queries generated")
	}
	for i, q := range queries {
		counts := map[EngineName]uint64{}
		for _, eng := range Engines {
			answered, dur, count := d.RunQuery(eng, q, 10*time.Second)
			if !answered {
				if eng == AMbER {
					t.Fatalf("query %d timed out on AMbER", i)
				}
				// Baselines may legitimately exceed even a generous timeout
				// on slow (instrumented or loaded) runs; the three-engine
				// equivalence property is covered by the baseline and
				// integration packages.
				continue
			}
			if dur <= 0 {
				t.Errorf("non-positive duration for %s", eng)
			}
			counts[eng] = count
		}
		for eng, n := range counts {
			if n != counts[AMbER] {
				t.Errorf("query %d: %s count %d != AMbER count %d\n%s", i, eng, n, counts[AMbER], q)
			}
		}
		if counts[AMbER] == 0 {
			t.Errorf("query %d: generated query unsatisfiable", i)
		}
	}
}

func TestRunFigureShape(t *testing.T) {
	cfg := tinyConfig()
	d := buildLUBM(t, cfg)
	points := RunFigure(d, workload.Star, cfg)
	if len(points) != len(cfg.Sizes) {
		t.Fatalf("points = %d, want %d", len(points), len(cfg.Sizes))
	}
	for i, p := range points {
		if p.Size != cfg.Sizes[i] {
			t.Errorf("point %d size = %d", i, p.Size)
		}
		if p.Queries == 0 {
			t.Errorf("point %d has no queries", i)
		}
		for _, e := range Engines {
			if pct := p.Unanswered[e]; pct < 0 || pct > 100 {
				t.Errorf("unanswered%% out of range: %f", pct)
			}
		}
	}
	out := FormatFigure("Figure X", points)
	if !strings.Contains(out, "average time") || !strings.Contains(out, "unanswered") {
		t.Errorf("FormatFigure output incomplete:\n%s", out)
	}
}

func TestTables(t *testing.T) {
	cfg := tinyConfig()
	d := buildLUBM(t, cfg)
	rows4 := Table4([]*Dataset{d})
	if len(rows4) != 1 || rows4[0].EdgeTypes != 13 {
		t.Errorf("Table4 = %+v (LUBM must have 13 edge types)", rows4)
	}
	rows5 := Table5([]*Dataset{d})
	if len(rows5) != 1 || rows5[0].IndexBytes <= 0 {
		t.Errorf("Table5 = %+v", rows5)
	}
	if !strings.Contains(FormatTable4(rows4), "LUBM") {
		t.Error("FormatTable4 missing dataset name")
	}
	if !strings.Contains(FormatTable5(rows5), "index") {
		t.Error("FormatTable5 missing header")
	}
}

func TestTable1Runs(t *testing.T) {
	cfg := tinyConfig()
	cfg.QueriesPerPoint = 2
	d := buildLUBM(t, cfg) // use LUBM for speed; Table 1 proper uses DBPEDIA
	r := RunTable1(d, cfg)
	if r.Queries == 0 {
		t.Fatal("no queries in Table 1 run")
	}
	out := FormatTable1(r)
	if !strings.Contains(out, "AMbER") {
		t.Errorf("FormatTable1 output:\n%s", out)
	}
}

func TestTimeoutProducesUnanswered(t *testing.T) {
	cfg := tinyConfig()
	d := buildLUBM(t, cfg)
	queries := d.Gen.Workload(workload.Star, 10, 2)
	if len(queries) == 0 {
		t.Skip("no size-10 stars in tiny corpus")
	}
	// A 1ns timeout cannot be met.
	answered, _, _ := d.RunQuery(GraphMatch, queries[0], time.Nanosecond)
	if answered {
		t.Error("1ns timeout reported answered")
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(2500 * time.Microsecond); got != "2.50ms" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(900 * time.Nanosecond); got != "0µs" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MB" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(2048); got != "2.0KB" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(10); got != "10B" {
		t.Errorf("fmtBytes = %q", got)
	}
}
