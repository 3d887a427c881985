// Question-answering example: the scenario the paper's introduction
// motivates — a QA system (like QAKiS) translates natural-language
// questions into machine-generated SPARQL queries over an encyclopedic
// knowledge graph, and the engine must answer them whatever their size and
// structure. This example ships a small curated knowledge base and a set
// of canned question→SPARQL translations.
//
//	go run ./examples/qa
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
)

const kb = `
@prefix r: <http://kb.example.org/resource/> .
@prefix o: <http://kb.example.org/ontology/> .

r:Inception o:directedBy r:Christopher_Nolan .
r:Inception o:starring r:Leonardo_DiCaprio .
r:Inception o:releasedIn "2010" .
r:Interstellar o:directedBy r:Christopher_Nolan .
r:Interstellar o:starring r:Matthew_McConaughey .
r:Interstellar o:releasedIn "2014" .
r:The_Dark_Knight o:directedBy r:Christopher_Nolan .
r:The_Dark_Knight o:starring r:Christian_Bale .
r:The_Dark_Knight o:releasedIn "2008" .
r:Titanic o:directedBy r:James_Cameron .
r:Titanic o:starring r:Leonardo_DiCaprio .
r:Titanic o:releasedIn "1997" .
r:Avatar o:directedBy r:James_Cameron .
r:Avatar o:releasedIn "2009" .

r:Christopher_Nolan o:bornIn r:London .
r:Christopher_Nolan o:citizenOf r:United_Kingdom .
r:James_Cameron o:bornIn r:Kapuskasing .
r:James_Cameron o:citizenOf r:Canada .
r:Leonardo_DiCaprio o:bornIn r:Los_Angeles .
r:Christian_Bale o:bornIn r:Haverfordwest .

r:London o:capitalOf r:United_Kingdom .
r:London o:population "8900000" .
r:Los_Angeles o:locatedIn r:California .
r:California o:locatedIn r:United_States .
r:Kapuskasing o:locatedIn r:Ontario .
r:Ontario o:locatedIn r:Canada .
`

type question struct {
	text   string
	sparql string
}

var questions = []question{
	{
		"Which Nolan films star an actor born in Los Angeles?",
		`PREFIX r: <http://kb.example.org/resource/>
PREFIX o: <http://kb.example.org/ontology/>
SELECT ?film WHERE {
  ?film o:directedBy r:Christopher_Nolan .
  ?film o:starring ?actor .
  ?actor o:bornIn r:Los_Angeles .
}`,
	},
	{
		"Who directed a film released in 2010 and was born in the capital of the UK?",
		`PREFIX r: <http://kb.example.org/resource/>
PREFIX o: <http://kb.example.org/ontology/>
SELECT ?director ?film WHERE {
  ?film o:directedBy ?director .
  ?film o:releasedIn "2010" .
  ?director o:bornIn ?city .
  ?city o:capitalOf r:United_Kingdom .
}`,
	},
	{
		"Which actors appear in films by two different directors?",
		`PREFIX o: <http://kb.example.org/ontology/>
SELECT ?actor ?d1 ?d2 WHERE {
  ?f1 o:starring ?actor .
  ?f2 o:starring ?actor .
  ?f1 o:directedBy ?d1 .
  ?f2 o:directedBy ?d2 .
}`,
	},
	{
		"Directors whose birthplace transitively lies in Canada?",
		`PREFIX r: <http://kb.example.org/resource/>
PREFIX o: <http://kb.example.org/ontology/>
SELECT ?director WHERE {
  ?film o:directedBy ?director .
  ?director o:bornIn ?town .
  ?town o:locatedIn ?region .
  ?region o:locatedIn r:Canada .
}`,
	},
}

func main() {
	db, err := amber.OpenString(kb)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("knowledge base: %d facts, %d entities\n\n", st.Triples, st.Vertices)

	for _, q := range questions {
		fmt.Println("Q:", q.text)
		start := time.Now()
		// Deduplicate projected answers (question 3 yields symmetric rows).
		seen := map[string]bool{}
		rows := 0
		for b, err := range db.All(context.Background(), q.sparql, &amber.QueryOptions{Timeout: 5 * time.Second}) {
			if err != nil {
				log.Fatal(err)
			}
			rows++
			parts := make([]string, 0, b.Len())
			for i, k := range b.Vars() {
				t, _ := b.At(i)
				parts = append(parts, fmt.Sprintf("%s=%s", k, short(t.Value)))
			}
			line := strings.Join(parts, ", ")
			if !seen[line] {
				seen[line] = true
				fmt.Printf("  A: %s\n", line)
			}
		}
		if rows == 0 {
			fmt.Println("  A: (no answer)")
		}
		fmt.Printf("  [%d rows in %s]\n\n", rows, time.Since(start).Round(time.Microsecond))
	}
}

func short(iri string) string {
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}
