package grapes

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
)

func randomGraph(rng *rand.Rand, n int, p float64, labels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestEnumerateParallelEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 40, 0.15, 4)
	opt := features.PathOptions{MaxLen: 4, Locations: true}
	seq := New(Options{MaxPathLen: 4, Threads: 1}).enumerate(g, opt)
	par := New(Options{MaxPathLen: 4, Threads: 6}).enumerate(g, opt)
	if len(seq.Counts) != len(par.Counts) {
		t.Fatalf("key counts differ: %d vs %d", len(seq.Counts), len(par.Counts))
	}
	for k, c := range seq.Counts {
		if par.Counts[k] != c {
			t.Fatalf("count mismatch for %q: %d vs %d", k, c, par.Counts[k])
		}
		a, b := seq.Locations[k], par.Locations[k]
		if len(a) != len(b) {
			t.Fatalf("location mismatch for %q", k)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("location order mismatch for %q", k)
			}
		}
	}
}

func TestSmallGraphSkipsParallelism(t *testing.T) {
	// graphs smaller than 2×threads take the sequential path; behaviour
	// must be identical
	g := graph.New(3)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	x := New(Options{MaxPathLen: 4, Threads: 8})
	x.Build([]*graph.Graph{g})
	if cs := x.Filter(g); len(cs) != 1 {
		t.Errorf("self-query CS = %v", cs)
	}
	if !x.Verify(g, 0) {
		t.Error("self verification failed")
	}
}

func TestVerifyUsesLocationsCorrectly(t *testing.T) {
	// two far-apart regions with the same labels: pattern lives only in
	// one region; location-restricted verification must still find it
	g := graph.New(8)
	// region A: triangle of label 1 (vertices 0-2)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	// bridge of label 9
	g.AddVertex(9)
	g.AddVertex(9)
	// region B: path of label 1 (vertices 5-7)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)

	tri := graph.New(3)
	tri.AddVertex(1)
	tri.AddVertex(1)
	tri.AddVertex(1)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)

	x := New(DefaultOptions())
	x.Build([]*graph.Graph{g})
	if !x.Verify(tri, 0) {
		t.Error("triangle in region A missed by location-restricted verify")
	}
	// a square of label 1 exists nowhere
	sq := graph.New(4)
	for i := 0; i < 4; i++ {
		sq.AddVertex(1)
	}
	sq.AddEdge(0, 1)
	sq.AddEdge(1, 2)
	sq.AddEdge(2, 3)
	sq.AddEdge(0, 3)
	if x.Verify(sq, 0) {
		t.Error("phantom square verified")
	}
}

func TestThreadsNormalised(t *testing.T) {
	x := New(Options{Threads: 0})
	if x.opt.Threads != 1 {
		t.Errorf("threads = %d", x.opt.Threads)
	}
	if itoa(0) != "0" || itoa(42) != "42" || itoa(6) != "6" {
		t.Error("itoa broken")
	}
}

func TestQueryFeatureMemoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := []*graph.Graph{randomGraph(rng, 12, 0.3, 3), randomGraph(rng, 12, 0.3, 3)}
	x := New(DefaultOptions())
	x.Build(db)
	q := randomGraph(rng, 4, 0.6, 3)
	m1 := x.queryState(q)
	f1 := slices.Clone(m1.feats)
	m2 := x.queryState(q)
	if m2 != m1 || !slices.Equal(f1, m2.feats) {
		t.Error("same query returned a different memo record")
	}
	if m1.connected != q.IsConnected() {
		t.Errorf("memo connected = %v, want %v", m1.connected, q.IsConnected())
	}
	if x.memo.Load().q != q {
		t.Error("memo does not hold the last query")
	}
	q2 := randomGraph(rng, 4, 0.6, 3)
	x.queryState(q2)
	if x.memo.Load().q != q2 {
		t.Error("different query served stale memo")
	}
	if !slices.Equal(f1, m1.feats) {
		t.Error("a published memo record changed after the memo moved on")
	}
}

func TestNameAndSizeInPackage(t *testing.T) {
	x := New(Options{MaxPathLen: 4, Threads: 1})
	if x.Name() != "Grapes" {
		t.Errorf("Name = %q", x.Name())
	}
	x6 := New(Options{MaxPathLen: 4, Threads: 6})
	if x6.Name() != "Grapes(6)" {
		t.Errorf("Name = %q", x6.Name())
	}
	rng := rand.New(rand.NewSource(6))
	db := []*graph.Graph{randomGraph(rng, 10, 0.3, 3)}
	x.Build(db)
	if x.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive after Build")
	}
}
