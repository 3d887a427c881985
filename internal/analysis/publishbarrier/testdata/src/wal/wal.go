// Package wal models the production repro/internal/wal surface for the
// publishbarrier analyzer (which matches barrier methods on wal.Log).
package wal

// Log stands in for wal.Log.
type Log struct{}

// Sync is a durability barrier.
func (l *Log) Sync() error { return nil }

// Append is a durability barrier returning (seq, error).
func (l *Log) Append(rec []byte) (uint64, error) { return 0, nil }

// AppendBatchNoSync is the group-commit barrier.
func (l *Log) AppendBatchNoSync(recs [][]byte) (uint64, error) { return 0, nil }

// AppendExternal is the replication barrier.
func (l *Log) AppendExternal(recs [][]byte) (uint64, error) { return 0, nil }

// Stats is not a barrier.
func (l *Log) Stats() int { return 0 }
