package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sparql"
)

// TestExecuteFillsMeter verifies the governance plumbing end to end at
// the core layer: a ResourceMeter attached to the trace in the context
// receives the engine's candidate/visit/intersection accounting and the
// plan-level progress.
func TestExecuteFillsMeter(t *testing.T) {
	s := newStore(t)
	pq, err := sparql.Parse(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . ?p y:livedIn ?e . }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.PrepareQuery(pq)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTraceID("meter-test", "q")
	meter := obs.NewResourceMeter()
	tr.SetMeter(meter)
	ctx := obs.ContextWithTrace(context.Background(), tr)

	rows := 0
	if err := p.Execute(engine.Options{Ctx: ctx}, func(Solution) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("query returned no rows; fixture broken")
	}
	v := meter.View()
	if v.VerticesVisited == 0 {
		t.Error("meter recorded no vertex visits")
	}
	if v.Candidates == 0 {
		t.Error("meter recorded no candidates")
	}
	if v.TotalLevels == 0 {
		t.Error("meter recorded no plan levels")
	}
	if v.Level == 0 || v.Level > v.TotalLevels {
		t.Errorf("progress = %d/%d", v.Level, v.TotalLevels)
	}
	if v.OverlayProbes != 0 {
		t.Errorf("overlay probes = %d on a compacted base", v.OverlayProbes)
	}
	// The trace view carries the finished meter for /debug/traces and the
	// slow-query log.
	tr.Finish("ok", uint64(rows))
	tv := tr.View()
	if tv.Resources == nil || tv.Resources.VerticesVisited != v.VerticesVisited {
		t.Errorf("trace view resources = %+v, want meter %+v", tv.Resources, v)
	}
}

// TestExecuteMeterCountsOverlayProbes checks that index probes served
// through a non-empty overlay are attributed.
func TestExecuteMeterCountsOverlayProbes(t *testing.T) {
	s := newStore(t)
	u, err := sparql.ParseUpdate(`INSERT DATA {
		<http://dbpedia.org/resource/New_Person> <http://dbpedia.org/ontology/wasBornIn> <http://dbpedia.org/resource/London> .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	pq, err := sparql.Parse(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p WHERE { ?p y:wasBornIn ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.PrepareQuery(pq)
	if err != nil {
		t.Fatal(err)
	}
	meter := obs.NewResourceMeter()
	n := 0
	if err := p.Execute(engine.Options{Meter: meter}, func(Solution) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	if meter.View().OverlayProbes == 0 {
		t.Error("no overlay probes counted with a live delta")
	}
}

// TestCountFillsMeter: a Count whose context carries a trace fills the
// trace's meter and records the plan, the engine counters and the level
// frontiers into it, as Execute does — the record amber -count -verbose
// logs.
func TestCountFillsMeter(t *testing.T) {
	s := newStore(t)
	pq, err := sparql.Parse(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.PrepareQuery(pq)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTraceID("count-test", "q")
	meter := obs.NewResourceMeter()
	tr.SetMeter(meter)
	n, err := p.Count(engine.Options{Ctx: obs.ContextWithTrace(context.Background(), tr)})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no embeddings")
	}
	if meter.Visits() == 0 {
		t.Error("Count flushed no visits")
	}
	if tr.Shape() != "star" {
		t.Errorf("trace shape = %q, want star", tr.Shape())
	}
	if e := tr.Engine(); e.Embeddings != n || e.Recursions == 0 {
		t.Errorf("trace engine counters = %+v, want %d embeddings", e, n)
	}
	if len(tr.Levels()) == 0 {
		t.Error("trace recorded no level frontiers")
	}
}
