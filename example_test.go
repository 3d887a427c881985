package amber_test

import (
	"context"
	"fmt"
	"log"

	amber "repro"
)

const exampleData = `
<http://x/alice> <http://p/name> "Alice" .
<http://x/alice> <http://p/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/alice> <http://p/knows> <http://x/bob> .
<http://x/bob> <http://p/name> "Bob" .
`

// The cursor form: database/sql-style iteration with Scan.
func ExampleDB_QueryContext() {
	db, err := amber.OpenString(exampleData)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(),
		`SELECT ?who WHERE { <http://x/alice> <http://p/knows> ?who }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		var who amber.Term
		if err := rows.Scan(&who); err != nil {
			log.Fatal(err)
		}
		fmt.Println(who.Kind, who.Value)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	// Output: IRI http://x/bob
}

// The range-over-func form: typed bindings without cursor bookkeeping.
func ExamplePrepared_All() {
	db, err := amber.OpenString(exampleData)
	if err != nil {
		log.Fatal(err)
	}
	p, err := db.Prepare(`SELECT ?age WHERE { <http://x/alice> <http://p/age> ?age }`)
	if err != nil {
		log.Fatal(err)
	}
	for b, err := range p.All(context.Background(), nil) {
		if err != nil {
			log.Fatal(err)
		}
		if age, ok := b.Get("age"); ok {
			fmt.Printf("%s (datatype %s)\n", age.Value, age.Datatype)
		}
	}
	// Output: 42 (datatype http://www.w3.org/2001/XMLSchema#integer)
}

// ASK: existence checks short-circuit after the first match.
func ExampleDB_AskContext() {
	db, err := amber.OpenString(exampleData)
	if err != nil {
		log.Fatal(err)
	}
	yes, err := db.AskContext(context.Background(), `ASK { ?s <http://p/name> "Alice" }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	no, err := db.AskContext(context.Background(), `ASK { ?s <http://p/name> "Alice"@en }`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(yes, no)
	// Output: true false
}
