package iso

import (
	"slices"

	"repro/internal/graph"
)

// riState holds the backtracking search state. The engine follows the VF2
// discipline — incremental core mapping with feasibility rules — specialised
// to labeled monomorphism:
//
//   - syntactic feasibility: the candidate target vertex carries the right
//     label, is unused, has degree ≥ the pattern vertex's degree, and every
//     already-mapped pattern neighbour maps to a target neighbour;
//   - the matching order is connectivity-first (each pattern vertex after
//     the first within a component is adjacent to an earlier one), so
//     candidates are drawn from the adjacency of a mapped neighbour instead
//     of the whole target.
//
// With a Within restriction the target is the subgraph induced by the
// restriction's vertex set, read in place from the stored adjacency: a
// candidate is any inside vertex, degrees and the look-ahead count inside
// neighbours only, and pruning uses the inside label histogram and edge
// count. Since the inside vertices are ascending and adjacency lists are
// sorted, the search visits candidates in the order it would visit them on
// the materialised induced subgraph.
type riState struct {
	p, t    *graph.Graph
	in      *Within // nil: the whole target
	order   []int   // pattern vertices in matching order
	parent  []int   // parent[i]: pattern neighbour of order[i] ordered earlier, else -1
	mapping []int32 // pattern vertex -> target vertex, -1 if unmapped
	used    []bool  // target vertex already in the core
	stats   *Stats
	emit    func([]int32) bool // nil: stop at the first embedding, setting found
	found   bool

	// matchingOrder and label-pruning buffers
	rank   []int         // per pattern vertex: number of ordered neighbours
	placed []bool        // per pattern vertex: already ordered
	labels []graph.Label // distinct pattern labels
	li     []int         // li[u]: index of p.Label(u) in labels
	pn, tn []int         // per distinct label: pattern and target vertex counts
}

// Within restricts a search to the subgraph of the target induced by a
// vertex set W, without materialising that subgraph. Grapes passes one
// connected component of a candidate's located vertices.
type Within struct {
	Tag   []int32 // Tag[v] == ID iff v ∈ W; one entry per target vertex
	ID    int32
	Deg   []int32 // Deg[v] for v ∈ W: the number of v's neighbours in W
	Verts []int32 // W, ascending
	Edges int     // the number of edges with both ends in W
}

// Matcher runs restricted RI searches and keeps its buffers across calls,
// so a warm search allocates nothing. A Matcher is not safe for concurrent
// use.
type Matcher struct{ s riState }

// ExistsWithin reports whether pattern embeds in the subgraph of target
// induced by w, optionally accumulating stats. It explores exactly the
// search tree that RI explores on that induced subgraph built with
// graph.InducedSubgraph(w.Verts): the answer and the Stats are the same.
func (m *Matcher) ExistsWithin(pattern, target *graph.Graph, w *Within, st *Stats) bool {
	return m.s.exists(pattern, target, w, st)
}

// riExists reports whether p ⊆ t, optionally accumulating stats.
func riExists(p, t *graph.Graph, st *Stats) bool {
	var s riState
	return s.exists(p, t, nil, st)
}

// exists runs a first-embedding search and drops the references to the
// graphs afterwards, so a reused state does not pin them.
func (s *riState) exists(p, t *graph.Graph, in *Within, st *Stats) bool {
	s.emit, s.found = nil, false
	if s.init(p, t, in, st) {
		s.match(0)
	}
	s.p, s.t, s.in, s.stats = nil, nil, nil, nil
	return s.found
}

// enumerate runs the VF2 engine calling fn per embedding; limit <= 0 means
// no limit (fn controls termination).
func enumerate(p, t *graph.Graph, limit int, fn func([]int32) bool) {
	count := 0
	s := riState{emit: func(m []int32) bool {
		count++
		if !fn(m) {
			return false
		}
		return limit <= 0 || count < limit
	}}
	if s.init(p, t, nil, nil) {
		s.match(0)
	}
}

// init prepares the search state. It returns false if trivial pruning
// already refutes the existence of an embedding, or for the empty pattern,
// whose single (empty) embedding it reports itself.
func (s *riState) init(p, t *graph.Graph, in *Within, st *Stats) bool {
	s.p, s.t, s.in, s.stats = p, t, in, st
	np := p.NumVertices()
	if np == 0 {
		// The empty pattern embeds everywhere: emit the empty mapping once.
		s.accept(nil)
		return false
	}
	nt, et := t.NumVertices(), t.NumEdges()
	if in != nil {
		nt, et = len(in.Verts), in.Edges
	}
	if np > nt || p.NumEdges() > et {
		return false
	}
	// Label histogram pruning: target must carry every pattern label at
	// least as many times.
	s.countLabels()
	for i, c := range s.pn {
		if s.tn[i] < c {
			return false
		}
	}
	s.mapping = slices.Grow(s.mapping[:0], np)[:np]
	for i := range s.mapping {
		s.mapping[i] = -1
	}
	s.used = zeroed(s.used, t.NumVertices())
	s.matchingOrder()
	return true
}

// countLabels fills the distinct pattern labels and, per label, how many
// pattern and target (inside) vertices carry it.
func (s *riState) countLabels() {
	p, t := s.p, s.t
	s.labels = s.labels[:0]
	s.li = slices.Grow(s.li[:0], p.NumVertices())[:p.NumVertices()]
	for u := range s.li {
		l := p.Label(u)
		i := slices.Index(s.labels, l)
		if i < 0 {
			i = len(s.labels)
			s.labels = append(s.labels, l)
		}
		s.li[u] = i
	}
	s.pn = zeroed(s.pn, len(s.labels))
	s.tn = zeroed(s.tn, len(s.labels))
	for _, i := range s.li {
		s.pn[i]++
	}
	count := func(v int) {
		if i := slices.Index(s.labels, t.Label(v)); i >= 0 {
			s.tn[i]++
		}
	}
	if s.in == nil {
		for v := range t.NumVertices() {
			count(v)
		}
		return
	}
	for _, v := range s.in.Verts {
		count(int(v))
	}
}

// matchingOrder produces a connectivity-first order over pattern vertices.
// Roots are chosen by (rarest target label, then highest pattern degree);
// subsequent vertices maximise the number of already-ordered neighbours
// (most-constrained-first), tie-broken by degree. parent[i] is an already
// ordered pattern neighbour used to restrict the candidate set. Target label
// frequencies come from countLabels.
func (s *riState) matchingOrder() {
	p := s.p
	np := p.NumVertices()
	s.order, s.parent = s.order[:0], s.parent[:0]
	s.placed, s.rank = zeroed(s.placed, np), zeroed(s.rank, np)
	placed, rank := s.placed, s.rank

	better := func(a, b int) bool { // is a a better next pick than b?
		if rank[a] != rank[b] {
			return rank[a] > rank[b]
		}
		fa, fb := s.tn[s.li[a]], s.tn[s.li[b]]
		if fa != fb {
			return fa < fb
		}
		if p.Degree(a) != p.Degree(b) {
			return p.Degree(a) > p.Degree(b)
		}
		return a < b
	}

	for len(s.order) < np {
		best := -1
		for v := 0; v < np; v++ {
			if placed[v] {
				continue
			}
			if best == -1 || better(v, best) {
				best = v
			}
		}
		// find an ordered neighbour to act as parent
		par := -1
		for _, w := range p.Neighbors(best) {
			if placed[w] {
				par = int(w)
				break
			}
		}
		s.order = append(s.order, best)
		s.parent = append(s.parent, par)
		placed[best] = true
		for _, w := range p.Neighbors(best) {
			rank[w]++
		}
	}
}

// accept reports an embedding; it returns false to stop the search.
func (s *riState) accept(m []int32) bool {
	if s.emit == nil {
		s.found = true
		return false
	}
	return s.emit(m)
}

// inside reports whether target vertex v belongs to the searched subgraph.
func (s *riState) inside(v int32) bool { return s.in == nil || s.in.Tag[v] == s.in.ID }

// degree is target vertex c's degree in the searched subgraph.
func (s *riState) degree(c int) int {
	if s.in != nil {
		return int(s.in.Deg[c])
	}
	return s.t.Degree(c)
}

// match extends the core mapping at depth d; returns false if the search
// should stop entirely (an embedding was accepted or emit asked to halt).
func (s *riState) match(d int) bool {
	if d == len(s.order) {
		return s.accept(s.mapping)
	}
	u := s.order[d]
	if par := s.parent[d]; par >= 0 {
		// Candidates restricted to neighbours of the parent's image.
		for _, c := range s.t.Neighbors(int(s.mapping[par])) {
			if s.inside(c) && !s.tryPair(d, u, int(c)) {
				return false
			}
		}
		return true
	}
	// No ordered neighbour (component root): all target vertices.
	if s.in != nil {
		for _, c := range s.in.Verts {
			if !s.tryPair(d, u, int(c)) {
				return false
			}
		}
		return true
	}
	for c := 0; c < s.t.NumVertices(); c++ {
		if !s.tryPair(d, u, c) {
			return false
		}
	}
	return true
}

// tryPair attempts the assignment u→c and recurses on success. It returns
// false to abort the entire search.
func (s *riState) tryPair(d, u, c int) bool {
	if s.used[c] || !s.feasible(u, c) {
		return true
	}
	if s.stats != nil {
		s.stats.Assignments++
	}
	s.mapping[u] = int32(c)
	s.used[c] = true
	ok := s.match(d + 1)
	s.mapping[u] = -1
	s.used[c] = false
	if s.stats != nil {
		s.stats.Backtracks++
	}
	return ok
}

// feasible applies the monomorphism feasibility rules for mapping u→c.
func (s *riState) feasible(u, c int) bool {
	if s.p.Label(u) != s.t.Label(c) {
		return false
	}
	if s.degree(c) < s.p.Degree(u) {
		return false
	}
	// Every mapped pattern neighbour must be adjacent in the target with a
	// matching edge label. (For monomorphism there is no converse
	// requirement.)
	for _, w := range s.p.Neighbors(u) {
		if m := s.mapping[w]; m >= 0 {
			if !s.t.HasEdge(c, int(m)) ||
				s.p.EdgeLabel(u, int(w)) != s.t.EdgeLabel(c, int(m)) {
				return false
			}
		}
	}
	// 1-look-ahead: c must have enough unused neighbours left to host u's
	// unmapped neighbours. Sound for monomorphism because every unmapped
	// pattern neighbour of u must eventually map to a distinct unused
	// target neighbour of c.
	needed := 0
	for _, w := range s.p.Neighbors(u) {
		if s.mapping[w] < 0 {
			needed++
		}
	}
	if needed > 0 {
		avail := 0
		for _, x := range s.t.Neighbors(c) {
			if !s.used[x] && s.inside(x) {
				avail++
				if avail >= needed {
					break
				}
			}
		}
		if avail < needed {
			return false
		}
	}
	return true
}

// zeroed returns a zeroed slice of length n, reusing buf's storage when it
// fits.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}
