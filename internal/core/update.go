package core

import (
	"fmt"
	"io"
	"os"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ApplyUpdate executes a parsed SPARQL 1.1 Update request: operations
// run in order, each one atomically visible. There is no cross-operation
// transaction — on error, operations already executed stay applied and
// the failing one reports which it was (SILENT suppresses the failure).
func (s *Store) ApplyUpdate(u *sparql.Update) error {
	for i, op := range u.Ops {
		var err error
		switch op.Kind {
		case sparql.UpInsertData:
			err = s.Mutate(op.Triples, nil)
		case sparql.UpDeleteData:
			err = s.Mutate(nil, op.Triples)
		case sparql.UpClear:
			err = s.Clear()
		case sparql.UpLoad:
			err = s.load(op.Source)
		default:
			err = fmt.Errorf("core: unsupported update operation %v", op.Kind)
		}
		if err != nil && !op.Silent {
			return fmt.Errorf("core: update operation %d (%v): %w", i+1, op.Kind, err)
		}
	}
	return nil
}

// load reads an N-Triples / prefixed-Turtle document from a local file
// and bulk-inserts its triples as one atomic batch.
func (s *Store) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var triples []rdf.Triple
	dec := rdf.NewDecoder(f)
	for {
		t, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		triples = append(triples, t)
	}
	return s.Mutate(triples, nil)
}
