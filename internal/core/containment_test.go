package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/iso"
)

func TestContainmentNoFalseNegatives(t *testing.T) {
	// Algorithm 2's candidate set must contain every indexed graph that is
	// truly a subgraph of the query (paper §6.2 proof, executable form).
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		ci := NewContainmentIndex(4)
		var indexed []*graph.Graph
		for i := 0; i < 12; i++ {
			g := randomGraph(rng, 2+rng.Intn(5), 0.4, 3)
			indexed = append(indexed, g)
			ci.Add(int32(i), g)
		}
		q := randomGraph(rng, 4+rng.Intn(5), 0.4, 3)
		cs := map[int32]bool{}
		for _, id := range ci.CandidateSubgraphs(q) {
			cs[id] = true
		}
		for i, g := range indexed {
			if iso.Reference(g, q) && !cs[int32(i)] {
				t.Fatalf("trial %d: indexed graph %d ⊆ query but not in CS", trial, i)
			}
		}
	}
}

func TestContainmentOccurrenceCountFilter(t *testing.T) {
	// a graph needing two occurrences of a feature must not be a candidate
	// for a query that has only one
	ci := NewContainmentIndex(4)
	twoEdges := graph.New(4) // two disjoint 1-2 edges
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddEdge(0, 1)
	twoEdges.AddEdge(2, 3)
	ci.Add(0, twoEdges)

	oneEdge := graph.New(2)
	oneEdge.AddVertex(1)
	oneEdge.AddVertex(2)
	oneEdge.AddEdge(0, 1)
	if cs := ci.CandidateSubgraphs(oneEdge); len(cs) != 0 {
		t.Errorf("occurrence filter failed: CS=%v", cs)
	}
	// but a query with both edges qualifies
	if cs := ci.CandidateSubgraphs(twoEdges); len(cs) != 1 {
		t.Errorf("self query: CS=%v", cs)
	}
}

func TestContainmentEmptyIndexedGraph(t *testing.T) {
	ci := NewContainmentIndex(4)
	ci.Add(7, graph.New(0))
	q := randomGraph(rand.New(rand.NewSource(1)), 4, 0.5, 2)
	cs := ci.CandidateSubgraphs(q)
	if len(cs) != 1 || cs[0] != 7 {
		t.Errorf("empty graph must be everyone's subgraph candidate: %v", cs)
	}
}

func TestContainmentLenAndSize(t *testing.T) {
	ci := NewContainmentIndex(4)
	if ci.Len() != 0 {
		t.Error("fresh index non-empty")
	}
	ci.Add(0, tinyGraph())
	ci.Add(1, tinyGraph())
	if ci.Len() != 2 {
		t.Errorf("Len = %d", ci.Len())
	}
	if ci.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestContainmentExactSelfHit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		ci := NewContainmentIndex(4)
		g := randomGraph(rng, 3+rng.Intn(5), 0.4, 3)
		ci.Add(0, g)
		cs := ci.CandidateSubgraphs(g)
		if len(cs) != 1 || cs[0] != 0 {
			t.Fatalf("trial %d: graph not a candidate subgraph of itself: %v", trial, cs)
		}
	}
}

// featureCounts enumerates g's path features against ci's dictionary
// (interning when intern is set) as an id → count map.
func featureCounts(ci *ContainmentIndex, g *graph.Graph, intern bool) (features.IDSet, map[features.FeatureID]int32) {
	qf := features.PathsID(g, features.PathOptions{MaxLen: ci.MaxPathLen()}, ci.Dict(), features.NewScratch(), intern)
	qf.Counts = append([]features.IDCount(nil), qf.Counts...)
	m := map[features.FeatureID]int32{}
	for _, fc := range qf.Counts {
		m[fc.ID] = fc.Count
	}
	return qf, m
}

// TestCandidatesFromIDSetMatchesBruteForce checks Algorithm 2 over the
// dense NF table against a direct NF check: graph gi is a candidate iff
// every feature of gi occurs in the query at least as often. Graphs sit at
// sparse ids, so the slots between them — never added — must never match,
// not even for the empty query that admits every featureless graph.
func TestCandidatesFromIDSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		ci := NewContainmentIndex(3)
		indexed := map[int32]map[features.FeatureID]int32{}
		for i := 0; i < 14; i++ {
			id := int32(3*i + 1 + rng.Intn(2))
			g := randomGraph(rng, 1+rng.Intn(5), 0.5, 3)
			if i%5 == 0 {
				g = graph.New(0) // featureless
			}
			ci.Add(id, g)
			_, indexed[id] = featureCounts(ci, g, false)
		}
		if ci.Len() != len(indexed) {
			t.Fatalf("trial %d: Len = %d, want %d indexed graphs", trial, ci.Len(), len(indexed))
		}
		if got, want := ci.SizeBytes(), ci.tr.SizeBytes()+12*len(indexed); got != want {
			t.Fatalf("trial %d: SizeBytes = %d, want trie + 12·%d = %d", trial, got, len(indexed), want)
		}
		queries := []*graph.Graph{graph.New(0)}
		for q := 0; q < 10; q++ {
			queries = append(queries, randomGraph(rng, 3+rng.Intn(6), 0.4, 3))
		}
		for qi, q := range queries {
			qf, qc := featureCounts(ci, q, false)
			var want []int32
			for id := int32(0); id < 50; id++ {
				gc, ok := indexed[id]
				if !ok {
					continue
				}
				pass := true
				for f, o := range gc {
					if qc[f] < o {
						pass = false
					}
				}
				if pass {
					want = append(want, id)
				}
			}
			if got := ci.CandidatesFromIDSet(qf); !slices.Equal(got, want) {
				t.Fatalf("trial %d query %d: got %v, brute force %v", trial, qi, got, want)
			}
		}
	}
}

// TestCandidatesFromIDsZeroAllocs is Algorithm 2's allocation gate: once
// the scratch is warm, a lookup allocates nothing.
func TestCandidatesFromIDsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ci := NewContainmentIndex(3)
	for i := 0; i < 40; i++ {
		ci.Add(int32(i), randomGraph(rng, 2+rng.Intn(4), 0.5, 3))
	}
	qf, _ := featureCounts(ci, randomGraph(rng, 8, 0.4, 3), false)
	s := newCIScratch()
	if len(ci.candidatesFromIDs(qf, s)) == 0 {
		t.Fatal("premise: no candidates")
	}
	if allocs := testing.AllocsPerRun(50, func() { ci.candidatesFromIDs(qf, s) }); allocs != 0 {
		t.Fatalf("candidatesFromIDs allocates %.1f times per call on a warm scratch", allocs)
	}
}
