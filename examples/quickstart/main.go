// Quickstart: load the paper's running example (Figure 1) and answer the
// kind of SPARQL queries Section 2 walks through.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// data is the RDF tripleset of the paper's Figure 1a.
const data = `
@prefix x: <http://dbpedia.org/resource/> .
@prefix y: <http://dbpedia.org/ontology/> .
x:London y:isPartOf x:England .
x:England y:hasCapital x:London .
x:Christopher_Nolan y:wasBornIn x:London .
x:Christopher_Nolan y:livedIn x:England .
x:Christopher_Nolan y:isPartOf x:Dark_Knight_Trilogy .
x:London y:hasStadium x:WembleyStadium .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London .
x:Amy_Winehouse y:diedIn x:London .
x:Amy_Winehouse y:wasPartOf x:Music_Band .
x:Music_Band y:hasName "MCA_Band" .
x:Music_Band y:foundedIn "1994" .
x:Music_Band y:wasFormedIn x:London .
x:Amy_Winehouse y:livedIn x:United_States .
x:Amy_Winehouse y:wasMarriedTo x:Blake_Fielder-Civil .
x:Blake_Fielder-Civil y:livedIn x:United_States .
`

func main() {
	db, err := amber.OpenString(data)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("loaded %d triples → %d vertices, %d edge types, %d attributes\n\n",
		st.Triples, st.Vertices, st.EdgeTypes, st.Attributes)

	ctx := context.Background()

	// Who was born in and died in the same place?
	fmt.Println("Q1: born and died in the same city")
	for b, err := range db.All(ctx, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?city WHERE {
  ?who y:wasBornIn ?city .
  ?who y:diedIn ?city .
}`, nil) {
		if err != nil {
			log.Fatal(err)
		}
		who, _ := b.Get("who")
		city, _ := b.Get("city")
		fmt.Printf("  %s — %s\n", who.Value, city.Value)
	}

	// The paper's Figure 2 query (with its typos corrected to match the
	// data): a complex 13-triplet pattern around London.
	fmt.Println("\nQ2: the paper's Figure 2 query")
	for b, err := range db.All(ctx, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?X0 ?X3 ?X5 WHERE {
  ?X0 y:wasBornIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:wasMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacityOf "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X5 y:foundedIn "1994" .
  ?X3 y:livedIn x:United_States .
}`, nil) {
		if err != nil {
			log.Fatal(err)
		}
		x0, _ := b.Get("X0")
		x3, _ := b.Get("X3")
		x5, _ := b.Get("X5")
		fmt.Printf("  X0=%s X3=%s X5=%s\n", x0.Value, x3.Value, x5.Value)
	}

	// Counting without enumerating.
	n, err := db.Count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE { ?a y:livedIn ?b }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ3: %d livedIn facts\n", n)

	// Typed literal bindings: the band's name is a literal attribute in
	// the multigraph model, and a single-occurrence object variable binds
	// it as a typed term through the cursor API.
	fmt.Println("\nQ4: literal bindings via the typed cursor")
	cur, err := db.QueryContext(ctx, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?band ?name WHERE { ?band y:hasName ?name }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
		var band, name amber.Term
		if err := cur.Scan(&band, &name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s is named %s (a %s term)\n", band.Value, name, name.Kind)
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}

	// ASK: existence without enumeration.
	yes, err := db.AskContext(ctx, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
ASK { x:Music_Band y:foundedIn "1994" }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ5: founded in 1994? %v\n", yes)
}
