package core

import (
	"sync"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/trie"
)

// ContainmentIndex is the paper's novel supergraph index (Algorithms 1 and
// 2): a trie over the features of a set of indexed graphs that, given a
// query graph g, returns the candidate indexed graphs that may be
// *subgraphs* of g.
//
// For each indexed graph gi, the index stores every feature f of gi with its
// occurrence count o as a posting {gi, o} (Algorithm 1), plus NF[gi], the
// number of distinct features of gi. A query g with feature occurrences
// O[f, g] produces candidates gi for which every feature of gi appears in g
// with o ≤ O[f, g] — realised, exactly as in Algorithm 2, by counting for
// each gi the features that pass the occurrence test and keeping gi iff the
// count equals NF[gi]. The candidate set has no false negatives (see the
// paper's §6.2 argument); callers verify gi ⊆ g to remove false positives.
//
// Graph ids are small dense integers (dataset positions, or slots of a
// cache snapshot), so NF and the Algorithm 2 counter are plain slices
// indexed by id: the final pass is one ordered loop over NF, with no map
// and no sort.
//
// Postings are probed by interned FeatureID. Query features unknown to the
// dictionary are harmless here: they can only make the query *larger*, and
// Algorithm 2 only requires every *indexed* feature to appear in the query.
//
// iGQ uses a ContainmentIndex over cached query graphs as Isuper; package
// index/contain wraps one over the dataset graphs to obtain a standalone
// supergraph query processing method (the paper's §4.4 Msuper).
type ContainmentIndex struct {
	maxPathLen int
	tr         *trie.Trie
	nf         []int32 // NF[gi]: distinct feature count per graph; -1 where no graph is indexed
	n          int     // indexed graphs (entries of nf ≥ 0)

	// pool of scratch state for the public standalone entry points; iGQ's
	// hot path passes a per-query scratch from its own free list instead.
	// A built index is immutable — dataset mutation goes through the
	// copy-on-write NewMutation/ApplyMutation pair — so lookups are
	// concurrency-safe.
	pool sync.Pool
}

// ciScratch is the reusable state of one Algorithm 2 pass.
type ciScratch struct {
	feat    *features.Scratch
	matched []int32 // per-graph count of features passing the occurrence test
	ids     []int32 // one feature's posting ids
	res     []int32
}

func newCIScratch() *ciScratch { return &ciScratch{feat: features.NewScratch()} }

// NewContainmentIndex returns an empty containment index with a private
// feature dictionary, using labeled simple paths of up to maxPathLen edges
// as the feature family.
func NewContainmentIndex(maxPathLen int) *ContainmentIndex {
	return NewContainmentIndexWithDict(maxPathLen, features.NewDict())
}

// NewContainmentIndexWithDict returns an empty containment index whose
// features are interned through d (shared with other indexes over the same
// feature family), with the default postings shard count.
func NewContainmentIndexWithDict(maxPathLen int, d *features.Dict) *ContainmentIndex {
	return NewContainmentIndexSharded(maxPathLen, d, 0)
}

// NewContainmentIndexSharded is NewContainmentIndexWithDict with an
// explicit postings shard count (0 = trie.DefaultShards()).
func NewContainmentIndexSharded(maxPathLen int, d *features.Dict, shards int) *ContainmentIndex {
	if maxPathLen <= 0 {
		maxPathLen = 4
	}
	return newContainmentIndex(maxPathLen, trie.NewSharded(d, shards), nil)
}

// newContainmentIndex assembles an index around an existing trie and NF
// table (the constructors and the copy-on-write mutation path share it).
func newContainmentIndex(maxPathLen int, tr *trie.Trie, nf []int32) *ContainmentIndex {
	ci := &ContainmentIndex{maxPathLen: maxPathLen, tr: tr, nf: nf}
	for _, n := range nf {
		if n >= 0 {
			ci.n++
		}
	}
	ci.pool.New = func() any { return newCIScratch() }
	return ci
}

// setNF records NF[id] = n, growing the table with never-indexed
// sentinels as needed.
func (ci *ContainmentIndex) setNF(id int32, n int) {
	for int(id) >= len(ci.nf) {
		ci.nf = append(ci.nf, -1)
	}
	if ci.nf[id] < 0 {
		ci.n++
	}
	ci.nf[id] = int32(n)
}

// Add indexes graph g under identifier id (Algorithm 1's loop body).
func (ci *ContainmentIndex) Add(id int32, g *graph.Graph) {
	s := ci.pool.Get().(*ciScratch)
	qf := features.PathsID(g, features.PathOptions{MaxLen: ci.maxPathLen}, ci.tr.Dict(), s.feat, true)
	ci.AddFromIDCounts(id, qf)
	ci.pool.Put(s)
}

// AddFromIDCounts indexes a graph by its pre-enumerated, interned feature
// occurrences, letting callers share one enumeration across several indexes.
func (ci *ContainmentIndex) AddFromIDCounts(id int32, qf features.IDSet) {
	ci.setNF(id, len(qf.Counts))
	for _, fc := range qf.Counts {
		ci.tr.InsertID(fc.ID, trie.Posting{Graph: id, Count: fc.Count})
	}
}

// AddFromFeatures indexes a graph by its string-keyed feature occurrence
// counts (legacy entry point; the hot path is AddFromIDCounts).
func (ci *ContainmentIndex) AddFromFeatures(id int32, counts map[string]int) {
	ci.setNF(id, len(counts))
	for f, o := range counts {
		ci.tr.Insert(f, trie.Posting{Graph: id, Count: int32(o)})
	}
}

// Dict returns the index's feature dictionary.
func (ci *ContainmentIndex) Dict() *features.Dict { return ci.tr.Dict() }

// MaxPathLen returns the feature length the index was built with.
func (ci *ContainmentIndex) MaxPathLen() int { return ci.maxPathLen }

// Len returns the number of indexed graphs.
func (ci *ContainmentIndex) Len() int { return ci.n }

// CandidateSubgraphs implements Algorithm 2: the ids of indexed graphs that
// may satisfy gi ⊆ g. The result is sorted ascending, freshly allocated,
// and contains no false negatives. Safe for concurrent use.
func (ci *ContainmentIndex) CandidateSubgraphs(g *graph.Graph) []int32 {
	s := ci.pool.Get().(*ciScratch)
	defer ci.pool.Put(s)
	// Lookup-only enumeration: unknown features cannot disqualify an
	// indexed subgraph, they only enlarge the query.
	qf := features.PathsID(g, features.PathOptions{MaxLen: ci.maxPathLen}, ci.tr.Dict(), s.feat, false)
	cs := ci.candidatesFromIDs(qf, s)
	if len(cs) == 0 {
		return nil
	}
	return append([]int32(nil), cs...)
}

// CandidatesFromIDSet is Algorithm 2 given a query already enumerated
// against this index's dictionary (lookup-only enumeration is sufficient:
// unknown features only enlarge the query). The result is freshly
// allocated and sorted. Safe for concurrent use.
func (ci *ContainmentIndex) CandidatesFromIDSet(qf features.IDSet) []int32 {
	s := ci.pool.Get().(*ciScratch)
	defer ci.pool.Put(s)
	cs := ci.candidatesFromIDs(qf, s)
	if len(cs) == 0 {
		return nil
	}
	return append([]int32(nil), cs...)
}

// candidatesFromIDs is Algorithm 2 given pre-enumerated query occurrences
// O[f, g]: a dense per-graph counter of the features passing the
// occurrence test, then one ordered pass keeping gi iff its count equals
// NF[gi] — which also admits graphs with no features (the empty graph is
// a subgraph of everything) and never an id that holds no graph. The
// result is ascending, aliases s and is valid until the scratch is reused.
func (ci *ContainmentIndex) candidatesFromIDs(qf features.IDSet, s *ciScratch) []int32 {
	if cap(s.matched) < len(ci.nf) {
		s.matched = make([]int32, len(ci.nf))
	}
	matched := s.matched[:len(ci.nf)]
	clear(matched)
	for _, fc := range qf.Counts {
		pl := ci.tr.GetByID(fc.ID)
		s.ids = pl.AppendIDs(s.ids[:0])
		for i, g := range s.ids {
			if pl.CountAt(i) <= fc.Count {
				matched[g]++
			}
		}
	}
	cs := s.res[:0]
	for id, n := range ci.nf {
		if matched[id] == n {
			cs = append(cs, int32(id))
		}
	}
	s.res = cs
	return cs
}

// SizeBytes approximates the index footprint (trie plus NF table).
func (ci *ContainmentIndex) SizeBytes() int {
	return ci.tr.SizeBytes() + 12*ci.n
}

// LiveDictSizeBytes reports the feature dictionary's footprint counted at
// live features only — dead entries left behind by removals are excluded,
// so a mutated index sizes identically to a from-scratch rebuild.
func (ci *ContainmentIndex) LiveDictSizeBytes() int { return ci.tr.LiveDictSizeBytes() }
