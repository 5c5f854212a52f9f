package grapes

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

// bfsQuery extracts a connected query of up to k vertices from g: the
// subgraph induced by a BFS prefix from a random start (the paper's §7.1
// query extraction).
func bfsQuery(rng *rand.Rand, g *graph.Graph, k int) *graph.Graph {
	order := g.BFSOrder(rng.Intn(g.NumVertices()))
	if len(order) > k {
		order = order[:k]
	}
	q, _ := g.InducedSubgraph(order)
	return q
}

// disjointUnion returns a ∪ b with b's vertices renumbered after a's.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	u := a.Clone()
	off := u.NumVertices()
	for v := 0; v < b.NumVertices(); v++ {
		u.AddVertex(b.Label(v))
	}
	b.EdgesLabeled(func(v, w int, l graph.Label) { u.AddEdgeLabeled(off+v, off+w, l) })
	return u
}

// verifyWorkload is a sparse random dataset with many labels, so a query's
// located vertices split into several components, and its queries: BFS
// extracts of every size up to 8 vertices, random graphs, disjoint unions
// (disconnected queries) and the empty query.
func verifyWorkload(seed int64) (db, queries []*graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	db = make([]*graph.Graph, 24)
	for i := range db {
		db[i] = randomGraph(rng, 10+rng.Intn(40), 0.04+0.1*rng.Float64(), 3+rng.Intn(4))
	}
	queries = []*graph.Graph{graph.New(0)}
	for i := 0; i < 40; i++ {
		queries = append(queries, bfsQuery(rng, db[rng.Intn(len(db))], 1+rng.Intn(8)))
	}
	for i := 0; i < 8; i++ {
		queries = append(queries, randomGraph(rng, 2+rng.Intn(4), 0.5, 4))
		a := bfsQuery(rng, db[rng.Intn(len(db))], 1+rng.Intn(3))
		b := bfsQuery(rng, db[rng.Intn(len(db))], 1+rng.Intn(3))
		queries = append(queries, disjointUnion(a, b))
	}
	return db, queries
}

// TestVerifyMatchesWholeGraphOracle: Verify agrees with whole-graph RI on
// every (query, dataset graph) pair, candidates and non-candidates alike,
// and the workload does exercise located sets with several components.
func TestVerifyMatchesWholeGraphOracle(t *testing.T) {
	db, queries := verifyWorkload(23)
	x := New(DefaultOptions())
	x.Build(db)
	s := new(verifyScratch)
	multi, found, disconnected := 0, 0, 0
	for qi, q := range queries {
		if !q.IsConnected() {
			disconnected++
		}
		for id, g := range db {
			want := iso.SubgraphAlg(q, g, iso.RI)
			if got := x.Verify(q, int32(id)); got != want {
				t.Fatalf("query %d graph %d: Verify = %v, whole-graph RI = %v", qi, id, got, want)
			}
			if want {
				found++
			}
			if q.NumVertices() == 0 || !q.IsConnected() {
				continue
			}
			before := s.epoch
			if got := s.verify(x.tr, x.queryState(q).feats, q, g, int32(id)); got != want {
				t.Fatalf("query %d graph %d: scratch verify = %v, whole-graph RI = %v", qi, id, got, want)
			}
			for _, c := range s.comps {
				if comp := s.verts[c.end-c.size : c.end]; !slices.IsSorted(comp) {
					t.Fatalf("query %d graph %d: component %v laid out unsorted", qi, id, comp)
				}
			}
			if s.epoch-before > 2 { // the located stamp plus two or more components
				multi++
			}
		}
	}
	if disconnected == 0 || found == 0 || multi == 0 {
		t.Fatalf("degenerate workload: %d disconnected queries, %d embeddings, %d multi-component located sets",
			disconnected, found, multi)
	}
}

// TestVerifyComponentsInOrder: the located vertices of the query 1-1-2 form
// a label-1 triangle (large enough but lacking label 2), a label-1 edge
// (smaller than the query) and the only component holding the query, in
// that order of smallest vertex; unlocated label-9 vertices join them into
// one connected graph.
func TestVerifyComponentsInOrder(t *testing.T) {
	labels := []graph.Label{1, 1, 1, 9, 1, 1, 9, 1, 1, 2, 9}
	g := graph.New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 0}} {
		g.AddEdge(e[0], e[1])
	}
	x := New(DefaultOptions())
	x.Build([]*graph.Graph{g})
	q := graph.New(3)
	q.AddVertex(1)
	q.AddVertex(1)
	q.AddVertex(2)
	q.AddEdge(0, 1)
	q.AddEdge(1, 2)
	s := new(verifyScratch)
	if !s.verify(x.tr, x.queryState(q).feats, q, g, 0) {
		t.Fatal("1-1-2 in the third component missed")
	}
	if s.epoch != 4 {
		t.Errorf("took %d stamps, want 4 (located set and three components)", s.epoch)
	}
	want := []component{{end: 3, size: 3, edges: 3}, {end: 5, size: 2, edges: 1}, {end: 8, size: 3, edges: 2}}
	if !slices.Equal(s.comps, want) || !slices.Equal(s.verts, []int32{0, 1, 2, 4, 5, 7, 8, 9}) {
		t.Errorf("components %v laid out as %v", s.comps, s.verts)
	}
	// 1-2-1 needs two label-1 neighbours of the label-2 vertex: nowhere.
	q.SetLabel(1, 2)
	q.SetLabel(2, 1)
	if x.Verify(q, 0) || iso.SubgraphAlg(q, g, iso.RI) {
		t.Error("1-2-1 embedded")
	}
}

// TestVerifyEpochWrap: a scratch whose stamps run out clears its marks and
// starts over. The marks are pre-filled with the small stamps the calls
// after the wrap hand out, so a missed clear would make unlocated vertices
// look located and merge or grow components: each call must walk the same
// components as on a scratch that never wrapped.
func TestVerifyEpochWrap(t *testing.T) {
	db, queries := verifyWorkload(29)
	x := New(DefaultOptions())
	x.Build(db)
	maxN := 0
	for _, g := range db {
		maxN = max(maxN, g.NumVertices())
	}
	s, ref := new(verifyScratch), new(verifyScratch)
	wraps := 0
	for qi, q := range queries {
		if q.NumVertices() == 0 || !q.IsConnected() {
			continue
		}
		feats := x.queryState(q).feats
		for id, g := range db {
			if qi%3 == 0 && id%5 == 0 {
				s.mark, s.deg = make([]int32, maxN), make([]int32, maxN)
				for v := range s.mark {
					s.mark[v] = int32(1 + v%4)
				}
				s.epoch = math.MaxInt32 - int32(g.NumVertices())
			}
			before, refBefore := s.epoch, ref.epoch
			want := iso.SubgraphAlg(q, g, iso.RI)
			if got := s.verify(x.tr, feats, q, g, int32(id)); got != want {
				t.Fatalf("query %d graph %d after epoch %d: verify = %v, whole-graph RI = %v", qi, id, before, got, want)
			}
			ref.verify(x.tr, feats, q, g, int32(id))
			if s.epoch < before {
				wraps++
				before = 0
			}
			if s.epoch-before != ref.epoch-refBefore || !slices.Equal(s.comps, ref.comps) || !slices.Equal(s.verts, ref.verts) {
				t.Fatalf("query %d graph %d: components %v laid out as %v, want %v as %v", qi, id,
					s.comps, s.verts, ref.comps, ref.verts)
			}
		}
	}
	if wraps == 0 {
		t.Fatal("no epoch wrap happened")
	}
}

// TestVerifyConcurrentDistinctQueries: Verify calls of distinct queries
// from 8 goroutines, which race on the query memo and the scratch pool,
// agree with the serial whole-graph oracle.
func TestVerifyConcurrentDistinctQueries(t *testing.T) {
	db, queries := verifyWorkload(37)
	x := New(DefaultOptions())
	x.Build(db)
	want := make([][]bool, len(queries))
	for qi, q := range queries {
		want[qi] = make([]bool, len(db))
		for id := range db {
			want[qi][id] = iso.SubgraphAlg(q, db[id], iso.RI)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for qi := w; qi < len(queries); qi += workers {
					for id := range db {
						if got := x.Verify(queries[qi], int32(id)); got != want[qi][id] {
							errs <- "concurrent Verify diverges from the serial result"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
