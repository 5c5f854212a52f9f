package contain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
)

// TestMutationDifferential pins the copy-on-write mutation path to a
// from-scratch Build over the final dataset: after every append/remove
// batch the mutated index must match the rebuilt one in filter results,
// verified answers and SizeBytes — the supergraph analogue of the ggsx
// differential, covering the NF bookkeeping the trie cannot check.
func TestMutationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := make([]*graph.Graph, 16)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
	}
	// Supergraph queries are larger than the indexed graphs so containment
	// answers are non-trivial.
	queries := make([]*graph.Graph, 8)
	for i := range queries {
		queries[i] = randomGraph(rng, 5+rng.Intn(4), 0.4, 3)
	}

	var cur index.Mutable = New(Options{MaxPathLen: 3})
	cur.Build(db)
	cdb := db
	for step := 0; step < 12; step++ {
		if rng.Intn(2) == 0 || len(cdb) < 4 {
			gs := []*graph.Graph{
				randomGraph(rng, 2+rng.Intn(4), 0.5, 3),
				randomGraph(rng, 2+rng.Intn(4), 0.5, 3),
			}
			next, ndb, err := cur.AppendGraphs(gs)
			if err != nil {
				t.Fatal(err)
			}
			wantDB := append(append([]*graph.Graph(nil), cdb...), gs...)
			if !reflect.DeepEqual(ndb, wantDB) {
				t.Fatalf("step %d: AppendGraphs dataset mismatch", step)
			}
			cur, cdb = next, ndb
		} else {
			ps := []int{rng.Intn(len(cdb))}
			if rng.Intn(2) == 0 && len(cdb) > 2 {
				q := rng.Intn(len(cdb))
				if q != ps[0] {
					ps = append(ps, q)
				}
			}
			wantDB, _, wantMap, err := index.SwapRemove(cdb, ps)
			if err != nil {
				t.Fatal(err)
			}
			next, ndb, mapping, err := cur.RemoveGraphs(ps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ndb, wantDB) || !reflect.DeepEqual(mapping, wantMap) {
				t.Fatalf("step %d: RemoveGraphs dataset/mapping mismatch", step)
			}
			cur, cdb = next, ndb
		}

		ref := New(Options{MaxPathLen: 3})
		ref.Build(cdb)
		if got, want := cur.SizeBytes(), ref.SizeBytes(); got != want {
			t.Fatalf("step %d: SizeBytes %d != rebuilt %d", step, got, want)
		}
		// The NF table follows appends and swap-removals slot for slot.
		if got, want := cur.(*Index).ci.NFTable(0), ref.ci.NFTable(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: NF table %v != rebuilt %v", step, got, want)
		}
		if got := cur.(*Index).ci.Len(); got != len(cdb) {
			t.Fatalf("step %d: Len %d != %d graphs", step, got, len(cdb))
		}
		for qi, q := range queries {
			if got, want := cur.Filter(q), ref.Filter(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d query %d: Filter diverges\ngot:  %v\nwant: %v", step, qi, got, want)
			}
			if !reflect.DeepEqual(index.Answer(cur, q), index.Answer(ref, q)) {
				t.Fatalf("step %d query %d: Answer diverges", step, qi)
			}
		}
	}
}

// TestMutationEmptyGraphNF exercises the NF special case: a graph with no
// features (single labeled vertex, no edges — subgraph of everything with
// that label... in fact of every graph, since it has zero features) must
// survive append and swap-removal with its NF=0 bookkeeping intact.
func TestMutationEmptyGraphNF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := make([]*graph.Graph, 6)
	for i := range db {
		db[i] = randomGraph(rng, 3, 0.6, 2)
	}
	empty := graph.New(1)
	empty.AddVertex(graph.Label(0))

	var cur index.Mutable = New(Options{MaxPathLen: 3})
	cur.Build(db)
	next, cdb, err := cur.AppendGraphs([]*graph.Graph{empty})
	if err != nil {
		t.Fatal(err)
	}
	cur, _ = next, cdb
	q := randomGraph(rng, 5, 0.5, 2)
	found := false
	for _, id := range cur.Filter(q) {
		if id == int32(len(db)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("featureless graph missing from candidates after append")
	}
	// Swap-remove position 0 so the empty graph (last) is re-homed there.
	next2, ndb, _, err := cur.RemoveGraphs([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Options{MaxPathLen: 3})
	ref.Build(ndb)
	if got, want := fmt.Sprint(next2.Filter(q)), fmt.Sprint(ref.Filter(q)); got != want {
		t.Fatalf("after swap-removal of empty graph: Filter %s != rebuilt %s", got, want)
	}
}
