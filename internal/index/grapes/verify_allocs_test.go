// The race detector makes sync.Pool drop items at random, so Verify's
// pooled scratch is reallocated now and then under -race.

//go:build !race

package grapes

import (
	"testing"

	"repro/internal/graph"
)

// TestVerifyZeroAllocs: a warm Verify on a connected query allocates
// nothing, whether it finds an embedding or not.
func TestVerifyZeroAllocs(t *testing.T) {
	db, queries := verifyWorkload(31)
	x := New(DefaultOptions())
	x.Build(db)
	var q *graph.Graph
	for _, c := range queries {
		if c.NumVertices() >= 4 && c.IsConnected() {
			q = c
			break
		}
	}
	for id := range db {
		x.Verify(q, int32(id))
		allocs := testing.AllocsPerRun(20, func() { x.Verify(q, int32(id)) })
		if allocs != 0 {
			t.Fatalf("warm Verify(q, %d) allocates %.1f times, want 0", id, allocs)
		}
	}
}
