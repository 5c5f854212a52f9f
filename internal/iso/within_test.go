package iso

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// withinOf builds the restriction of t to the vertex set vs. Vertices
// outside vs carry tags other than the restriction's ID, some of them
// adjacent values, and degrees above their own, as a reused scratch would.
func withinOf(t *graph.Graph, vs []int, id int32) *Within {
	n := t.NumVertices()
	w := &Within{Tag: make([]int32, n), ID: id, Deg: make([]int32, n)}
	for v := range w.Tag {
		w.Tag[v] = id - 1 + 2*int32(v%2)
		w.Deg[v] = int32(t.Degree(v) + 5)
	}
	for _, v := range vs {
		if w.Tag[v] != id {
			w.Tag[v] = id
			w.Verts = append(w.Verts, int32(v))
		}
	}
	slices.Sort(w.Verts)
	for _, v := range w.Verts {
		w.Deg[v] = 0
		for _, u := range t.Neighbors(int(v)) {
			if w.Tag[u] == id {
				w.Deg[v]++
			}
		}
		w.Edges += int(w.Deg[v])
	}
	w.Edges /= 2
	return w
}

// checkWithin compares the restricted search of p on vs ⊆ t with RI on the
// materialised induced subgraph: same answer, same Stats, also on a second,
// warm run of the same Matcher. It returns the answer.
func checkWithin(tb testing.TB, m *Matcher, p, t *graph.Graph, vs []int) bool {
	tb.Helper()
	w := withinOf(t, vs, 7)
	verts := make([]int, len(w.Verts))
	for i, v := range w.Verts {
		verts[i] = int(v)
	}
	sub, _ := t.InducedSubgraph(verts)
	var want Stats
	wantOK := riExists(p, sub, &want)
	for run := 0; run < 2; run++ {
		var got Stats
		if ok := m.ExistsWithin(p, t, w, &got); ok != wantOK || got != want {
			tb.Fatalf("run %d on %v: ExistsWithin = %v %+v, RI on the induced subgraph = %v %+v",
				run, verts, ok, got, wantOK, want)
		}
	}
	return wantOK
}

// maskComponents returns the connected components, in t's vertex ids, of
// the subgraph induced by the vertices with mask set.
func maskComponents(t *graph.Graph, mask []bool) [][]int {
	var vs []int
	for v, in := range mask {
		if in {
			vs = append(vs, v)
		}
	}
	sub, orig := t.InducedSubgraph(vs)
	var comps [][]int
	for _, c := range sub.ConnectedComponents() {
		comp := make([]int, len(c))
		for i, v := range c {
			comp[i] = orig[v]
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

func TestExistsWithinComponents(t *testing.T) {
	// target: triangle(1,1,1) ∪ path(2,2); pattern: edge(2,2) lives only in
	// the second component.
	tgt := graph.New(5)
	tgt.AddVertex(1)
	tgt.AddVertex(1)
	tgt.AddVertex(1)
	tgt.AddVertex(2)
	tgt.AddVertex(2)
	tgt.AddEdge(0, 1)
	tgt.AddEdge(1, 2)
	tgt.AddEdge(0, 2)
	tgt.AddEdge(3, 4)
	var m Matcher
	embeds := func(p *graph.Graph) bool {
		for _, comp := range tgt.ConnectedComponents() {
			if m.ExistsWithin(p, tgt, withinOf(tgt, comp, 1), nil) {
				return true
			}
		}
		return false
	}
	if !embeds(pathGraph(2, 2)) {
		t.Error("component-restricted search missed embedding")
	}
	if embeds(pathGraph(1, 2)) {
		t.Error("cross-component pattern falsely embedded")
	}
	// The restriction is induced: the triangle's vertices 0 and 1 alone
	// keep their edge but lose vertex 2.
	if !m.ExistsWithin(pathGraph(1, 1), tgt, withinOf(tgt, []int{0, 1}, 1), nil) {
		t.Error("edge inside the restriction missed")
	}
	if m.ExistsWithin(pathGraph(1, 1, 1), tgt, withinOf(tgt, []int{0, 1}, 1), nil) {
		t.Error("path leaving the restriction embedded")
	}
	if !m.ExistsWithin(graph.New(0), tgt, withinOf(tgt, nil, 1), nil) {
		t.Error("empty pattern must embed in the empty restriction")
	}
}

// TestExistsWithinSameSearchTree: on random edge-labelled graphs, the
// restricted search on each component C of a random vertex mask explores
// the same search tree as RI on InducedSubgraph(C) — identical answers and
// identical Assignments/Backtracks — and so does the restriction to the
// whole (disconnected) mask.
func TestExistsWithinSameSearchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var m Matcher
	comparisons, found := 0, 0
	for trial := 0; trial < 600; trial++ {
		g := randomLabeledGraph(rng, 8+rng.Intn(30), 0.08+0.25*rng.Float64(), 1+rng.Intn(4), 1+rng.Intn(3))
		mask := make([]bool, g.NumVertices())
		keep := 0.3 + 0.7*rng.Float64()
		var all []int
		for v := range mask {
			if mask[v] = rng.Float64() < keep; mask[v] {
				all = append(all, v)
			}
		}
		var pats []*graph.Graph
		for k := 0; k < 4; k++ {
			pats = append(pats,
				randomConnectedSubgraph(rng, g, 2+rng.Intn(6)),
				randomLabeledGraph(rng, 1+rng.Intn(5), 0.5, 2, 2))
		}
		for _, p := range pats {
			for _, comp := range append(maskComponents(g, mask), all) {
				if checkWithin(t, &m, p, g, comp) {
					found++
				}
				comparisons++
			}
		}
	}
	t.Logf("%d comparisons, %d embeddings", comparisons, found)
	if found == 0 || found == comparisons {
		t.Fatalf("degenerate workload: %d of %d comparisons embed", found, comparisons)
	}
}

// TestExistsWithinZeroAllocs: a warm Matcher allocates nothing.
func TestExistsWithinZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomLabeledGraph(rng, 40, 0.15, 3, 2)
	all := make([]int, g.NumVertices())
	for v := range all {
		all[v] = v
	}
	w := withinOf(g, all, 1)
	p := randomConnectedSubgraph(rng, g, 5)
	var m Matcher
	m.ExistsWithin(p, g, w, nil)
	if a := testing.AllocsPerRun(50, func() { m.ExistsWithin(p, g, w, nil) }); a != 0 {
		t.Errorf("warm ExistsWithin allocates %.1f times, want 0", a)
	}
}

// decodeGraph reads a small edge-labelled graph from data: a vertex count,
// one label byte per vertex, then (u, v, label) triples up to edgeBytes.
// It returns the graph and the unread rest.
func decodeGraph(data []byte, maxN, edgeBytes int) (*graph.Graph, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := next() % (maxN + 1)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(next() % 3))
	}
	for i := 0; i < edgeBytes/3 && len(data) >= 3 && n > 1; i++ {
		g.AddEdgeLabeled(next()%n, next()%n, graph.Label(next()%2))
	}
	return g, data
}

// FuzzExistsWithin decodes a target graph, a vertex mask and a pattern, and
// checks the restricted search on the mask and on each of its components
// against RI on the materialised induced subgraph.
func FuzzExistsWithin(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 0, 0xff, 2, 0, 1, 0, 1, 0})
	f.Add([]byte{8, 1, 1, 1, 1, 2, 2, 2, 2, 0, 1, 0, 1, 2, 0, 2, 0, 0, 4, 5, 1, 5, 6, 1, 6, 7, 0, 0xaa, 3, 1, 1, 1, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{1, 0, 0, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest := decodeGraph(data, 16, 96)
		mask := make([]bool, g.NumVertices())
		var all []int
		for v := range mask {
			if v/8 < len(rest) && rest[v/8]&(1<<(v%8)) != 0 {
				mask[v] = true
				all = append(all, v)
			}
		}
		if n := (len(mask) + 7) / 8; n < len(rest) {
			rest = rest[n:]
		} else {
			rest = nil
		}
		p, _ := decodeGraph(rest, 6, 24)
		var m Matcher
		checkWithin(t, &m, p, g, all)
		for _, comp := range maskComponents(g, mask) {
			checkWithin(t, &m, p, g, comp)
		}
	})
}
