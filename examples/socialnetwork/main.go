// Social-network example: the "entity graph" scenario from the paper's
// introduction. Builds a synthetic follow/like/membership graph with
// profile attributes and answers the star- and path-shaped questions a
// social search engine issues, demonstrating how AMbER's satellite
// factorization makes counting star results cheap.
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro"
)

const (
	nUsers  = 400
	nGroups = 25
	nPosts  = 1200
)

func buildData() string {
	rng := rand.New(rand.NewSource(99))
	var b strings.Builder
	b.WriteString("@prefix sn: <http://social.example.org/ontology/> .\n")
	b.WriteString("@prefix u: <http://social.example.org/user/> .\n")
	b.WriteString("@prefix g: <http://social.example.org/group/> .\n")
	b.WriteString("@prefix p: <http://social.example.org/post/> .\n")

	cities := []string{"London", "Paris", "Berlin", "Madrid", "Rome"}
	for i := 0; i < nUsers; i++ {
		fmt.Fprintf(&b, "u:user%d sn:livesIn \"%s\" .\n", i, cities[rng.Intn(len(cities))])
		fmt.Fprintf(&b, "u:user%d sn:joinedIn \"%d\" .\n", i, 2010+rng.Intn(10))
		// Follows: preferential attachment towards low ids (celebrities).
		for f := 0; f < 3+rng.Intn(5); f++ {
			target := rng.Intn(1 + i)
			if target != i {
				fmt.Fprintf(&b, "u:user%d sn:follows u:user%d .\n", i, target)
			}
		}
		if rng.Intn(3) > 0 {
			fmt.Fprintf(&b, "u:user%d sn:memberOf g:group%d .\n", i, rng.Intn(nGroups))
		}
	}
	for i := 0; i < nPosts; i++ {
		author := rng.Intn(nUsers)
		fmt.Fprintf(&b, "p:post%d sn:postedBy u:user%d .\n", i, author)
		for l := 0; l < rng.Intn(6); l++ {
			fmt.Fprintf(&b, "u:user%d sn:likes p:post%d .\n", rng.Intn(nUsers), i)
		}
	}
	return b.String()
}

func main() {
	db, err := amber.OpenString(buildData())
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("social graph: %d triples, %d vertices, %d edge types\n\n",
		st.Triples, st.Vertices, st.EdgeTypes)
	ctx := context.Background()

	// A star query: engaged Londoners — they follow someone, like a post,
	// belong to a group, and live in London. The satellite factorization
	// counts the follower×like×group combinations without enumerating.
	star := `
PREFIX sn: <http://social.example.org/ontology/>
SELECT * WHERE {
  ?u sn:follows ?someone .
  ?u sn:likes ?post .
  ?u sn:memberOf ?grp .
  ?u sn:livesIn "London" .
}`
	start := time.Now()
	n, err := db.Count(star, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star query: %d follower×like×group combinations for Londoners, counted in %s\n",
		n, time.Since(start).Round(time.Microsecond))

	// The same count enumerated row by row, for comparison.
	start = time.Now()
	enumerated := 0
	for _, err := range db.All(ctx, star, nil) {
		if err != nil {
			log.Fatal(err)
		}
		enumerated++
	}
	fmt.Printf("            enumeration of the same %d rows took %s\n\n",
		enumerated, time.Since(start).Round(time.Microsecond))

	// A path query: influence chains — u follows v, v follows w, and w's
	// post was liked by u.
	path := `
PREFIX sn: <http://social.example.org/ontology/>
SELECT ?u ?v ?w WHERE {
  ?u sn:follows ?v .
  ?v sn:follows ?w .
  ?post sn:postedBy ?w .
  ?u sn:likes ?post .
} LIMIT 5`
	fmt.Println("influence chains (first 5):")
	for b, err := range db.All(ctx, path, &amber.QueryOptions{Timeout: 10 * time.Second}) {
		if err != nil {
			log.Fatal(err)
		}
		u, _ := b.Get("u")
		v, _ := b.Get("v")
		w, _ := b.Get("w")
		fmt.Printf("  %s → %s → %s\n", short(u.Value), short(v.Value), short(w.Value))
	}
}

func short(iri string) string {
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}
