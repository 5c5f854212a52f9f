package core

import (
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/trie"
)

// subIndex is Isub: a subgraph index over the *cached query graphs*. It is
// the familiar filter-then-verify construction — the paper points out that
// finding supergraphs of a new query among previous queries "represents a
// microcosm of our original problem", so any subgraph indexing method works;
// like the dataset baselines we index labeled paths with occurrence counts.
//
// Given a new query g, candidates are cached graphs containing every path
// feature of g at least as often as g does; the caller verifies g ⊆ G to
// obtain Isub(g) (which makes formula (1) hold by construction). Postings
// are keyed by interned FeatureID; the feature dictionary is shared with
// Isuper (and, when the wrapped method exposes one, with the dataset index),
// so one enumeration of the query serves every probe.
type subIndex struct {
	tr  *trie.Trie
	ids []int32 // all indexed entry slots, ascending
}

// newSubIndex returns an empty Isub whose features are interned through d,
// with the given postings shard count (0 = trie.DefaultShards()).
func newSubIndex(d *features.Dict, shards int) *subIndex {
	return &subIndex{tr: trie.NewSharded(d, shards)}
}

// add indexes one cached graph's pre-enumerated features; slots are added
// in ascending order.
func (si *subIndex) add(id int32, qf features.IDSet) {
	si.ids = append(si.ids, id)
	for _, fc := range qf.Counts {
		si.tr.InsertID(fc.ID, trie.Posting{Graph: id, Count: fc.Count})
	}
}

// candidates returns the ids of cached graphs that may be supergraphs of a
// query with the given path-feature occurrences, via the shared
// selectivity-ordered count filter (index.FilterCountGE). The result may
// alias s and is valid until the scratch is reused. Each in-flight query
// owns a private scratch set (IGQ's free list) holding one scratch per
// cache-side index, so concurrent queries never share s and Isub/Isuper
// results coexist within one query. The index itself is immutable once
// built, so any number of queries may probe it concurrently.
func (si *subIndex) candidates(qf features.IDSet, s *index.CountFilterScratch) []int32 {
	if len(qf.Counts) == 0 && qf.Unknown == 0 {
		// an empty query is a subgraph of every cached graph
		return si.ids
	}
	return index.FilterCountGE(si.tr, qf, s)
}

// SizeBytes approximates the Isub trie footprint.
func (si *subIndex) SizeBytes() int { return si.tr.SizeBytes() + 4*len(si.ids) }

// verifySub confirms q ⊆ G for a candidate entry (removing Isub false
// positives, per the paper's §6.1).
func verifySub(q, cached *graph.Graph) bool {
	return subgraphTest(q, cached)
}
