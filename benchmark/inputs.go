package main

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/url"
	"os"
	"strings"
	"time"

	amber "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
	"repro/internal/workload"
)

// Frozen constants, calibrated once on the seed commit (README.md says
// how). A later change may not edit them together with a claimed gain.
const (
	// datasetSeed generates the corpora and the query pools. They are the
	// benchmark's fixed data set; --seed drives the traffic over them.
	datasetSeed = 2016
	// clients is the number of client goroutines and connections: the
	// sandbox's core count, which the server shares with them.
	clients = 2
	// visitCap is server.Config.MaxQueryVisits: the deterministic abort
	// for a runaway query (422, a failed operation).
	visitCap = 5_000_000
	// clientTimeout is the wall-clock backstop behind visitCap.
	clientTimeout = 10 * time.Second
	// latencyLimitMS is the p99 limit a serve-hot rate must meet.
	latencyLimitMS = 50.0
	// batchTriples is the size of every update and Mutate batch.
	batchTriples = 64
	// resultLimit is the LIMIT of every pool query.
	resultLimit = 100
	// churnNS holds the triples churn-durable inserts and deletes; no pool
	// query mentions it, so pool answers do not move with the epoch.
	churnNS = "http://amber.bench/churn#"
)

// serveRates are R1..R5 in requests/s: 25/50/75/100/125 % of the seed's
// closed-loop serve-hot capacity.
var serveRates = [5]float64{1650, 3300, 4950, 6600, 8250}

// scale sizes a run. full is what BENCHMARK.json measures; short is the
// smoke test's.
type scale struct {
	lubmServe, lubmBulk, dbpedia int // generator scale factors
	hotPool, coldPool, bulkPool  int // distinct queries
	warmPool                     int // match-cold warm-up queries outside the pool
	bulkBatches                  int // Mutate batches per bulk-load cycle
	soloBatches                  int // churn-durable phase A batches in a 10 s run
	compactThreshold             int // churn-durable overlay entries before compaction
	oracleMin                    int // queries per pool compared with the oracle
	setups                       int // set-up cycles per untraced run
	traceRequests                int // queries (and write batches) the traced replay takes through the layers
}

var (
	fullScale = scale{
		lubmServe: 10, lubmBulk: 20, dbpedia: 6,
		hotPool: 200, coldPool: 1200, bulkPool: 300, warmPool: 16,
		bulkBatches: 2000, soloBatches: 4000, compactThreshold: 65536,
		oracleMin: 32, setups: 5, traceRequests: 400,
	}
	shortScale = scale{
		lubmServe: 2, lubmBulk: 2, dbpedia: 1,
		hotPool: 40, coldPool: 300, bulkPool: 40, warmPool: 8,
		bulkBatches: 50, soloBatches: 3000, compactThreshold: 2048,
		oracleMin: 8, setups: 1, traceRequests: 40,
	}
)

// poolQuery is one generated query, ready to send.
type poolQuery struct {
	text string
	path string // "/sparql?query=...&format=json"
	ast  *sparql.Query
}

// buildPool generates n queries, cycling through kinds, from the fixed
// data set seed. Generated queries are satisfiable by construction.
func buildPool(ts []rdf.Triple, kinds []workload.Kind, size, n int) ([]poolQuery, error) {
	gen := workload.NewGenerator(ts, datasetSeed, workload.DefaultConfig())
	pool := make([]poolQuery, 0, n)
	seen := make(map[string]bool, n)
	for attempts := 0; len(pool) < n && attempts < 20*n; attempts++ {
		q, ok := gen.Generate(kinds[len(pool)%len(kinds)], size)
		if !ok {
			continue
		}
		q.Limit = resultLimit
		text := q.String()
		if seen[text] {
			continue
		}
		seen[text] = true
		pool = append(pool, poolQuery{
			text: text,
			path: "/sparql?format=json&query=" + url.QueryEscape(text),
			ast:  q,
		})
	}
	if len(pool) < n {
		return nil, fmt.Errorf("generated %d of %d %v queries of size %d", len(pool), n, kinds, size)
	}
	return pool, nil
}

// writeNT writes ts as an N-Triples file.
func writeNT(path string, ts []rdf.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := rdf.NewEncoder(f)
	for _, t := range ts {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func lubm(universities int) []rdf.Triple {
	return datagen.LUBM(datagen.LUBMConfig{Universities: universities, Seed: datasetSeed})
}

// oracleCheck compares AMbER's embedding counts with the independent
// triplestore evaluator on pool queries the oracle finishes in 250 ms,
// until min of them agree. A mismatch, or too few comparable queries, is
// an error.
func oracleCheck(db *amber.DB, ts []rdf.Triple, pool []poolQuery, min int) error {
	oracle, err := triplestore.FromTriples(ts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	compared := 0
	for _, pq := range pool {
		if compared >= min {
			break
		}
		unlimited := *pq.ast
		unlimited.Limit = 0
		want, err := oracle.Count(oracle.Compile(&unlimited),
			triplestore.Options{Deadline: time.Now().Add(250 * time.Millisecond)})
		if err != nil {
			continue // too slow for the oracle; try the next query
		}
		got, err := db.Count(unlimited.String(), &amber.QueryOptions{Timeout: clientTimeout})
		if err != nil {
			return fmt.Errorf("oracle check: %w\n%s", err, pq.text)
		}
		if got != want {
			return fmt.Errorf("oracle check: amber counts %d embeddings, oracle %d\n%s", got, want, pq.text)
		}
		compared++
	}
	if compared < min {
		return fmt.Errorf("oracle check: only %d of %d queries comparable", compared, min)
	}
	return nil
}

// tripleSet is an order-independent digest of a set of triples: equal
// sets give equal digests, whatever order the triples were added in.
type tripleSet struct {
	n   int
	sum uint64
}

var setSeed = maphash.MakeSeed()

func tripleHash(t rdf.Triple) uint64 {
	var h maphash.Hash
	h.SetSeed(setSeed)
	for _, term := range [3]rdf.Term{t.S, t.P, t.O} {
		h.WriteByte(byte(term.Kind))
		h.WriteString(term.Value)
		h.WriteByte(0)
		h.WriteString(term.Datatype)
		h.WriteByte(0)
		h.WriteString(term.Lang)
		h.WriteByte(0)
	}
	return h.Sum64()
}

func (s *tripleSet) add(t rdf.Triple) { s.n++; s.sum += tripleHash(t) }

func digest(ts []rdf.Triple) tripleSet {
	var s tripleSet
	for _, t := range ts {
		s.add(t)
	}
	return s
}

// batch is one 64-triple write: its triples, their SPARQL update texts
// and the bytes a user would send for them as N-Triples.
type batch struct {
	triples   []rdf.Triple
	userBytes int
}

func (b batch) dataBlock(verb string) string {
	var sb strings.Builder
	sb.Grow(b.userBytes + 32)
	sb.WriteString(verb)
	sb.WriteString(" DATA {\n")
	for _, t := range b.triples {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("}")
	return sb.String()
}

// churnBatch makes batch id of one writer: fresh subjects in churnNS, a
// few predicates, and objects that are half IRIs, half literals, drawn
// from rng.
func churnBatch(rng *rand.Rand, writer, id int) batch {
	b := batch{triples: make([]rdf.Triple, batchTriples)}
	for i := range b.triples {
		t := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%ss%d-%d-%d", churnNS, writer, id, i/4)),
			P: rdf.NewIRI(fmt.Sprintf("%sp%d", churnNS, i%8)),
		}
		if i%2 == 0 {
			t.O = rdf.NewIRI(fmt.Sprintf("%so%d", churnNS, rng.Intn(4096)))
		} else {
			t.O = rdf.NewLiteral(fmt.Sprintf("v%d-%d-%d", writer, id, rng.Intn(1<<20)))
		}
		b.triples[i] = t
		b.userBytes += len(t.String()) + 1
	}
	return b
}
