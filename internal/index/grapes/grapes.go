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
// among vertices where its features occur, so Grapes induces the subgraph
// of the candidate on the located vertices, splits it into connected
// components, and runs VF2 only on components large enough to host the
// query — typically small, which is what makes Grapes fast on large graphs.
//
// Filtering and location lookup run on interned feature IDs (see package
// ggsx); the string-based enumeration is only used at build time, where the
// location records are produced.
package grapes

import (
	"sync"

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

	// memo of the last query's features: Verify runs once per candidate of
	// the same query, so re-enumerating per candidate would be wasteful. A
	// hit requires both the same *Graph and an unchanged structural
	// fingerprint — pointer identity alone would serve stale features to a
	// caller that mutates a query graph in place between queries (or after
	// the allocator reuses a freed graph's address).
	mu     sync.Mutex
	lastQ  *graph.Graph
	lastFP uint64
	lastF  []features.IDCount
	memoS  *features.Scratch
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
	return &Index{opt: opt, dict: d, tr: trie.NewSharded(d, opt.Shards),
		log: index.NewDeltaLog(), memoS: features.NewScratch()}
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
// inside one connected component of the induced subgraph.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	g := x.db[id]
	if q.NumVertices() == 0 {
		return true // the empty pattern embeds everywhere
	}
	if !q.IsConnected() {
		// Component restriction is unsound for disconnected queries;
		// fall back to a whole-graph test (RI, Grapes' matcher).
		return iso.SubgraphAlg(q, g, iso.RI)
	}
	qf := x.queryFeatures(q)
	var located []int32
	for _, fc := range qf {
		pl := x.tr.GetByID(fc.ID)
		if i, ok := pl.Rank(id); ok {
			located = unionInto(located, pl.LocsAt(i))
		}
	}
	vs := make([]int, len(located))
	for i, v := range located {
		vs[i] = int(v)
	}
	sub, _ := g.InducedSubgraph(vs)
	return iso.SubgraphConnectedComponents(q, sub, sub.ConnectedComponents())
}

// queryFeatures returns (and memoises) the interned path features of q.
// Unknown features carry no location information, so lookup-only
// enumeration is sufficient here. The returned slice is freshly allocated
// per distinct query and never mutated afterwards, so concurrent Verify
// calls may keep using a snapshot after the memo moves on.
//
// The memo key is (pointer, structural fingerprint): the fingerprint
// detects in-place mutation of the same graph object (and address reuse),
// while the pointer check turns a would-be fingerprint collision between
// two distinct graphs into a harmless recomputation instead of a wrong
// verification. The hash is paid on every Verify call, but it is O(|q|)
// on the small query graph and is dwarfed by the induced-subgraph + VF2
// test that follows (engine query stream benches at parity with the
// pointer-only memo).
func (x *Index) queryFeatures(q *graph.Graph) []features.IDCount {
	fp := graph.Fingerprint(q)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.lastQ != q || x.lastFP != fp {
		qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, x.memoS, false)
		x.lastQ, x.lastFP = q, fp
		x.lastF = append([]features.IDCount(nil), qf.Counts...)
	}
	return x.lastF
}

// resetMemo invalidates the query-feature memo (Build and LoadIndex).
func (x *Index) resetMemo() {
	x.mu.Lock()
	x.lastQ, x.lastFP, x.lastF = nil, 0, nil
	x.mu.Unlock()
}

// SizeBytes implements index.Method: the path trie (postings + location
// lists) plus the feature dictionary the index owns, counted at the live
// vocabulary (see ggsx.SizeBytes on why the dictionary is counted at its
// owner and why retired features are excluded).
func (x *Index) SizeBytes() int { return x.tr.SizeBytes() + x.tr.LiveDictSizeBytes() }

func unionInto(dst, src []int32) []int32 {
	if len(dst) == 0 {
		return append(dst, src...)
	}
	out := make([]int32, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i] < src[j]:
			out = append(out, dst[i])
			i++
		case dst[i] > src[j]:
			out = append(out, src[j])
			j++
		default:
			out = append(out, dst[i])
			i++
			j++
		}
	}
	out = append(out, dst[i:]...)
	out = append(out, src[j:]...)
	return out
}
