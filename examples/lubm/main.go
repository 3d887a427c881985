// LUBM example: generate a LUBM-like university corpus in-process, load it
// into AMbER and run the classic academic-graph queries (advisor chains,
// co-enrolment stars, department rosters) with per-query timing.
//
//	go run ./examples/lubm
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

func main() {
	triples := datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7})
	var sb strings.Builder
	enc := rdf.NewEncoder(&sb)
	for _, t := range triples {
		if err := enc.Encode(t); err != nil {
			log.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	db, err := amber.OpenString(sb.String())
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("LUBM(2): %d triples, %d vertices, %d edge types — loaded in %s\n\n",
		st.Triples, st.Vertices, st.EdgeTypes, time.Since(start).Round(time.Millisecond))

	queries := []struct {
		name string
		text string
	}{
		{
			"students advised by a professor of their own department",
			`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?student ?prof ?dept WHERE {
  ?student ub:advisor ?prof .
  ?student ub:memberOf ?dept .
  ?prof ub:worksFor ?dept .
} LIMIT 5`,
		},
		{
			"co-enrolled pairs in a course taught by the head of department",
			`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?a ?b ?course WHERE {
  ?a ub:takesCourse ?course .
  ?b ub:takesCourse ?course .
  ?prof ub:teacherOf ?course .
  ?prof ub:headOf ?dept .
} LIMIT 5`,
		},
		{
			"professors with a publication who teach and advise (star)",
			`PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?prof WHERE {
  ?pub ub:publicationAuthor ?prof .
  ?prof ub:teacherOf ?course .
  ?student ub:advisor ?prof .
  ?prof ub:worksFor ?dept .
} LIMIT 5`,
		},
	}

	for _, q := range queries {
		fmt.Println("Q:", q.name)
		qStart := time.Now()
		n, err := db.Count(q.text, &amber.QueryOptions{Timeout: 10 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		countTime := time.Since(qStart)
		var lines []string
		for b, err := range db.All(context.Background(), q.text, &amber.QueryOptions{Timeout: 10 * time.Second}) {
			if err != nil {
				log.Fatal(err)
			}
			lines = append(lines, shorten(b))
		}
		fmt.Printf("  %d total solutions (counted in %s); first %d:\n",
			n, countTime.Round(time.Microsecond), len(lines))
		for _, l := range lines {
			fmt.Printf("    %s\n", l)
		}
		fmt.Println()
	}
}

// shorten strips the long LUBM namespace for readable output.
func shorten(b amber.Binding) string {
	parts := make([]string, 0, b.Len())
	for i, k := range b.Vars() {
		t, _ := b.At(i)
		v := strings.TrimPrefix(t.Value, "http://www.univ-bench.example.org/")
		parts = append(parts, fmt.Sprintf("?%s=%s", k, v))
	}
	return strings.Join(parts, " ")
}
