// Package grapes reimplements Grapes (Giugno et al., PLoS One 2013), the
// multi-core path index the paper uses as its strongest baseline
// (Grapes(1) and Grapes(6) denote 1 and 6 build/query threads).
//
// Like GGSX, Grapes exhaustively enumerates labeled simple paths up to
// MaxLen edges — but it additionally records *location information*: the
// set of vertices touched by each feature's occurrences in each graph.
// Index construction is parallel: each worker enumerates the paths starting
// from its share of the vertices and the per-worker results are merged
// (exactly the paper's description of per-thread tries merged into the
// graph's path index).
//
// Location information pays off at verification: the query can only embed
// among vertices where its features occur, so Grapes splits the candidate's
// located vertices into the connected components they induce and runs RI
// only inside components large enough to host the query — typically small,
// which is what makes Grapes fast on large graphs. The components are found
// and searched in place on the candidate's adjacency (a vertex mask, see
// iso.Matcher.ExistsWithin); no subgraph is copied.
//
// Filtering and location lookup run on interned feature IDs (see package
// ggsx); the string-based enumeration is only used at build time, where the
// location records are produced.
package grapes

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/iso"
	"repro/internal/trie"
)

// Options configures a Grapes index.
type Options struct {
	// MaxPathLen is the maximum path length in edges (paper default 4).
	MaxPathLen int
	// Threads is the build/verification parallelism (paper: 1 and 6).
	Threads int
	// Shards is the postings shard count of the path trie (rounded up to a
	// power of two; 0 = trie.DefaultShards()).
	Shards int
	// BuildWorkers overrides the number of goroutines Build fans graph
	// enumeration out over (0 = Threads, matching the paper's Grapes(T)
	// parallel construction). Any worker count produces an identical index.
	BuildWorkers int
}

// DefaultOptions mirrors the paper's Grapes(1) configuration.
func DefaultOptions() Options { return Options{MaxPathLen: 4, Threads: 1} }

// Index is the Grapes method. Create with New, then Build.
type Index struct {
	opt  Options
	db   []*graph.Graph
	dict *features.Dict
	tr   *trie.Trie
	log  *index.DeltaLog // unsaved mutations; shared across generations

	// memo of the last query's Verify-invariant state: Verify runs once per
	// candidate of the same query, so recomputing it per candidate would be
	// wasteful. See queryState.
	memo atomic.Pointer[queryMemo]
}

// queryMemo is one query's features and connectivity, immutable once
// published. A hit requires both the same *Graph and an unchanged
// structural fingerprint — pointer identity alone would serve stale state
// to a caller that mutates a query graph in place between queries (or after
// the allocator reuses a freed graph's address).
type queryMemo struct {
	q         *graph.Graph
	fp        uint64
	feats     []features.IDCount
	connected bool
}

var (
	_ index.Method        = (*Index)(nil)
	_ index.DictProvider  = (*Index)(nil)
	_ index.CountFilterer = (*Index)(nil)
)

// New returns an unbuilt Grapes index.
func New(opt Options) *Index {
	if opt.MaxPathLen <= 0 {
		opt.MaxPathLen = 4
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.BuildWorkers <= 0 {
		opt.BuildWorkers = opt.Threads
	}
	d := features.NewDict()
	return &Index{opt: opt, dict: d, tr: trie.NewSharded(d, opt.Shards), log: index.NewDeltaLog()}
}

// Name implements index.Method, including the thread count as in the paper.
func (x *Index) Name() string {
	if x.opt.Threads == 1 {
		return "Grapes"
	}
	return "Grapes(" + itoa(x.opt.Threads) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// FeatureDict implements index.DictProvider.
func (x *Index) FeatureDict() *features.Dict { return x.dict }

// FeatureMaxPathLen implements index.CountFilterer.
func (x *Index) FeatureMaxPathLen() int { return x.opt.MaxPathLen }

// Build implements index.Method with the paper's parallel construction:
// BuildWorkers goroutines (default Threads) each enumerate whole graphs and
// stage postings into private per-shard buffers that merge
// deterministically, so the index is identical at any worker count (the
// shared pipeline is ggsx.BuildPaths). When the dataset is too small to
// feed the graph-level workers — a handful of huge graphs, or an explicit
// single build worker — the legacy per-vertex-range strategy applies
// Threads-way parallelism *within* each graph instead, the original Grapes
// description. Both strategies produce the same index. The trie, the
// query-feature memo and the dictionary contents are reset on entry — the
// *Dict object handed out by FeatureDict stays valid, but a re-Build does
// not retain the previous dataset's dead vocabulary.
func (x *Index) Build(db []*graph.Graph) {
	x.db = db
	x.dict.Reset()
	x.tr = trie.NewSharded(x.dict, x.opt.Shards)
	x.log.NoteFullSave(0) // a rebuild invalidates any snapshot lineage
	x.resetMemo()
	opt := features.PathOptions{MaxLen: x.opt.MaxPathLen, Locations: true}
	if x.opt.Threads > 1 && (x.opt.BuildWorkers <= 1 || len(db) < 2*x.opt.BuildWorkers) {
		for i, g := range db {
			ps := x.enumerate(g, opt)
			for k, c := range ps.Counts {
				x.tr.Insert(k, trie.Posting{
					Graph: int32(i),
					Count: int32(c),
					Locs:  ps.Locations[k],
				})
			}
		}
		x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
		return
	}
	ggsx.BuildPaths(x.tr, db, opt, x.opt.BuildWorkers)
	x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
}

// enumerate splits the start-vertex range across Threads workers and merges
// the per-worker path sets.
func (x *Index) enumerate(g *graph.Graph, opt features.PathOptions) *features.PathSet {
	n := g.NumVertices()
	w := x.opt.Threads
	if w == 1 || n < 2*w {
		return features.Paths(g, opt)
	}
	parts := make([]*features.PathSet, w)
	trie.ParallelFor(w, w, func(_ int, claim func() int) {
		for t := claim(); t >= 0; t = claim() {
			parts[t] = features.PathsRange(g, opt, t*n/w, (t+1)*n/w)
		}
	})
	out := parts[0]
	for _, p := range parts[1:] {
		features.MergePathSets(out, p)
	}
	return out
}

// Filter implements index.Method: identical count-based filtering to GGSX
// (the two share the path feature family and the shared count filter).
func (x *Index) Filter(q *graph.Graph) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, s.Feat, false)
	return ggsx.FilterFresh(x.tr, qf, len(x.db), s)
}

// FilterByFeatureCounts implements index.CountFilterer.
func (x *Index) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	return ggsx.FilterFresh(x.tr, qf, len(x.db), s)
}

// Verify implements index.Method using location-restricted components.
//
// The located vertex set is the union of the candidate's occurrences of the
// query's features; since every vertex of an embedding occurs in some query
// feature occurrence (at minimum its single-vertex label path), the image of
// any embedding lies inside the located set, and — for a connected query —
// inside one connected component of the subgraph it induces. Verify finds
// those components by a BFS over the candidate's adjacency restricted to
// the located vertices and runs RI inside each one that can host the query,
// in order of their smallest vertex, until one embeds it. A warm call on a
// connected query allocates nothing.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	g := x.db[id]
	if q.NumVertices() == 0 {
		return true // the empty pattern embeds everywhere
	}
	m := x.queryState(q)
	if !m.connected {
		// Component restriction is unsound for disconnected queries;
		// fall back to a whole-graph test (RI, Grapes' matcher).
		return iso.SubgraphAlg(q, g, iso.RI)
	}
	s := verifyPool.Get().(*verifyScratch)
	ok := s.verify(x.tr, m.feats, q, g, id)
	verifyPool.Put(s)
	return ok
}

// verifyScratch is the working memory of one Verify call, pooled.
type verifyScratch struct {
	// mark holds epoch stamps per candidate vertex. A call takes one stamp
	// for its located vertices and one per component: mark[v] == the
	// located stamp means v is located and not yet in a component, a
	// larger stamp names v's component, and anything smaller is a previous
	// call's.
	mark  []int32
	epoch int32       // the last stamp handed out
	deg   []int32     // per located vertex: its neighbours in its component
	bfs   []int32     // the located vertices in BFS order, component by component
	verts []int32     // the same ranges, each component ascending
	comps []component // in order of their smallest vertex
	in    iso.Within  // held here so passing &in does not allocate
	m     iso.Matcher
}

// component is one connected component of the located vertices: its range
// in verifyScratch.bfs and .verts is [end-size, end).
type component struct{ end, size, edges int32 }

var verifyPool = sync.Pool{New: func() any { return new(verifyScratch) }}

// verify tests the connected query q, with interned features qf, inside the
// components of candidate g (dataset id) located by tr.
func (s *verifyScratch) verify(tr *trie.Trie, qf []features.IDCount, q, g *graph.Graph, id int32) bool {
	n := g.NumVertices()
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.deg = make([]int32, n)
	}
	// One stamp for the located set plus at most one per located vertex.
	if s.epoch > math.MaxInt32-1-int32(n) {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	located := s.epoch
	lo, hi, k := n, -1, 0 // span and number of the located vertices
	for _, fc := range qf {
		pl := tr.GetByID(fc.ID)
		if r, ok := pl.Rank(id); ok {
			for _, v := range pl.LocsAt(r) {
				if s.mark[v] != located {
					s.mark[v] = located
					lo, hi, k = min(lo, int(v)), max(hi, int(v)), k+1
				}
			}
		}
	}
	if k < q.NumVertices() {
		return false
	}
	// A BFS from each located vertex not reached yet, in ascending order,
	// finds the components in order of their smallest vertex.
	s.bfs, s.comps = s.bfs[:0], s.comps[:0]
	for r := lo; r <= hi; r++ {
		if s.mark[r] != located {
			continue
		}
		s.epoch++
		tag := s.epoch
		start := len(s.bfs)
		s.mark[r] = tag
		s.bfs = append(s.bfs, int32(r))
		edges := int32(0)
		for i := start; i < len(s.bfs); i++ {
			v := s.bfs[i]
			d := int32(0)
			for _, w := range g.Neighbors(int(v)) {
				switch s.mark[w] {
				case located:
					s.mark[w] = tag
					s.bfs = append(s.bfs, w)
					d++
				case tag:
					d++
				}
			}
			s.deg[v] = d
			edges += d
		}
		s.comps = append(s.comps, component{end: int32(start), size: int32(len(s.bfs) - start), edges: edges / 2})
	}
	// One ascending sweep lays each component out sorted in its range of
	// verts, advancing end from the range's start to its end.
	s.verts = slices.Grow(s.verts[:0], len(s.bfs))[:len(s.bfs)]
	for v := lo; v <= hi; v++ {
		if t := s.mark[v]; t > located {
			c := &s.comps[t-located-1]
			s.verts[c.end] = int32(v)
			c.end++
		}
	}
	for i, c := range s.comps {
		if int(c.size) < q.NumVertices() {
			continue
		}
		s.in = iso.Within{Tag: s.mark, ID: located + 1 + int32(i), Deg: s.deg,
			Verts: s.verts[c.end-c.size : c.end], Edges: int(c.edges)}
		if s.m.ExistsWithin(q, g, &s.in, nil) {
			return true
		}
	}
	return false
}

// queryState returns (and memoises) q's interned path features and
// connectivity. Unknown features carry no location information, so
// lookup-only enumeration is sufficient here. The memo is one immutable
// record behind an atomic pointer: concurrent Verify calls never wait on
// each other, and a caller may keep using a record after the memo moves on.
//
// The memo key is (pointer, structural fingerprint): the fingerprint
// detects in-place mutation of the same graph object (and address reuse),
// while the pointer check turns a would-be fingerprint collision between
// two distinct graphs into a harmless recomputation instead of a wrong
// verification. The fingerprint is memoised on the graph, so a hit costs
// two comparisons.
func (x *Index) queryState(q *graph.Graph) *queryMemo {
	fp := graph.Fingerprint(q)
	if m := x.memo.Load(); m != nil && m.q == q && m.fp == fp {
		return m
	}
	cs := index.GetCountFilterScratch()
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, cs.Feat, false)
	m := &queryMemo{q: q, fp: fp, feats: slices.Clone(qf.Counts), connected: q.IsConnected()}
	index.PutCountFilterScratch(cs)
	x.memo.Store(m)
	return m
}

// resetMemo invalidates the query memo (Build and LoadIndex).
func (x *Index) resetMemo() { x.memo.Store(nil) }

// SizeBytes implements index.Method: the path trie (postings + location
// lists) plus the feature dictionary the index owns, counted at the live
// vocabulary (see ggsx.SizeBytes on why the dictionary is counted at its
// owner and why retired features are excluded).
func (x *Index) SizeBytes() int { return x.tr.SizeBytes() + x.tr.LiveDictSizeBytes() }
