package trie

// Incremental maintenance. A built Trie is immutable on its read path
// (lock-free Get/GetByID/Walk), so dataset mutation cannot touch it in
// place while queries are in flight. Instead a Mutation stages a batch of
// dataset changes — appended graphs and swap-removals — against a base trie
// and Apply produces a *new* Trie holding the post-mutation state:
//
//   - shards that received no staged postings share their postings map with
//     the base (one pointer copy);
//   - an affected shard's map is copied once (small value entries), and
//     only the features actually touched are re-allocated: the first edit
//     materialises a feature's container into a flat working slice, later
//     edits mutate that slice in place, and Apply seals every surviving
//     edited feature back into canonical container form — so a batch costs
//     one materialise + one seal per touched feature, and container
//     encodings are re-chosen exactly where a feature crossed a density
//     threshold. Untouched features keep sharing the base's containers.
//
// The base trie is never written, so readers holding it are unaffected;
// installing the new trie is the caller's snapshot swap (the engine's
// mutation discipline). The staged ops double as the on-disk delta journal
// (see journal.go): recording them into a Journal and replaying that
// journal through this same Apply path is what makes a journaled snapshot
// land byte-identically on the live in-memory state.
//
// Feature identity across removals: postings of a drained feature (no
// occurrences left after a removal) are deleted, but its dictionary entry
// cannot be reclaimed — FeatureIDs are dense process-local handles and
// other index generations may still hold them. The trie instead tracks such features in a dead set: they are
// excluded from size accounting (LiveDictSizeBytes) and from persisted
// snapshots (WriteTo compacts the dictionary), so observable state always
// matches a from-scratch build over the surviving dataset. A later append
// that re-introduces the feature resurrects it.

import (
	"maps"
	"sort"

	"repro/internal/features"
)

// GraphFeature is one feature occurrence record of a single graph: the
// canonical key, the occurrence count, and (Grapes) the sorted vertex
// locations. Mutations and journals are keyed by canonical strings, not
// FeatureIDs — IDs are process-local, strings are the stable identity.
type GraphFeature struct {
	Key   string
	Count int32
	Locs  []int32
}

// op kinds of a staged mutation / journal entry.
const (
	opAppend byte = 1
	opRemove byte = 2
)

// mutOp is one staged dataset operation.
type mutOp struct {
	kind    byte
	graph   int32          // append: the new graph's id; remove: the vacated position
	swapped int32          // remove: the old id of the graph moved into `graph` (== graph when none)
	feats   []GraphFeature // append: new graph's features; remove: the swapped graph's features
	scrub   []string       // remove: the removed graph's feature keys
}

// Mutation stages a batch of dataset changes against a base trie. Stage ops
// with AppendGraph/RemoveGraph (in dataset-op order), then Apply. A
// Mutation is single-goroutine state; the produced trie is as concurrency-
// safe as any built trie.
type Mutation struct {
	base *Trie
	ops  []mutOp
}

// NewMutation returns an empty mutation staged against t.
func (t *Trie) NewMutation() *Mutation { return &Mutation{base: t} }

// Empty reports whether no ops were staged.
func (m *Mutation) Empty() bool { return len(m.ops) == 0 }

// AppendGraph stages the postings of a newly appended graph: id must not
// hold any posting in the base trie (dataset positions grow monotonically
// within one mutation batch).
func (m *Mutation) AppendGraph(id int32, feats []GraphFeature) {
	m.ops = append(m.ops, mutOp{kind: opAppend, graph: id, feats: feats})
}

// RemoveGraph stages one swap-removal step: the postings of the graph at
// position `removed` (feature keys in scrubKeys) are deleted, and — when
// swappedFrom != removed — the graph previously at position swappedFrom is
// re-homed to position `removed` (its full feature records in swappedFeats;
// its old postings are deleted and re-inserted at the new id).
func (m *Mutation) RemoveGraph(removed, swappedFrom int32, scrubKeys []string, swappedFeats []GraphFeature) {
	m.ops = append(m.ops, mutOp{
		kind:    opRemove,
		graph:   removed,
		swapped: swappedFrom,
		feats:   swappedFeats,
		scrub:   scrubKeys,
	})
}

// RecordTo appends the staged ops to a delta journal (persisted later via
// AppendJournalSection). Ops are shared, not copied — stage, record, Apply,
// then discard the Mutation.
func (m *Mutation) RecordTo(j *Journal) { j.ops = append(j.ops, m.ops...) }

// Apply builds the post-mutation trie. The base is left untouched and keeps
// answering over the pre-mutation dataset; unaffected shards and posting
// containers are shared between the two. Cost is O(staged features + one
// map copy per affected shard), independent of the dataset size.
func (m *Mutation) Apply() *Trie {
	// A partially-resident base cannot be copy-on-written shard by shard
	// (absent shards have nothing to share); a lazily-opened base faults
	// everything in first. The produced trie is always eager.
	m.base.ensureMaterialized()
	a := newApplier(m.base)
	for _, op := range m.ops {
		a.apply(op)
	}
	a.seal()
	return a.t
}

// applier is the working state of one Apply: the trie under construction
// plus ownership tracking for copy-on-write.
type applier struct {
	t     *Trie
	owned []bool // shards whose postings map is private to t

	// editing holds the flat working copies of features touched by this
	// applier: the first edit materialises the base's container into a
	// sorted []Posting once (with growth room), every later edit mutates
	// that private slice in place, and seal() converts each survivor back
	// to canonical container form — re-choosing the encoding for every
	// feature that crossed a density threshold during the batch.
	editing map[features.FeatureID][]Posting
}

func newApplier(base *Trie) *applier {
	t := &Trie{
		dict:      base.dict,
		mask:      base.mask,
		dead:      maps.Clone(base.dead),
		shards:    append([]shard(nil), base.shards...),
		policy:    base.policy,
		probeCost: base.probeCost,
	}
	return &applier{
		t:       t,
		owned:   make([]bool, len(t.shards)),
		editing: map[features.FeatureID][]Posting{},
	}
}

// seal converts every surviving edited feature back into canonical
// container form and installs it in its (applier-owned) shard map.
func (a *applier) seal() {
	for id, ps := range a.editing {
		a.shardFor(id).posts[id] = sealPostings(a.t.policy, ps)
	}
	a.editing = nil
}

// shardFor returns a privately owned postings map for the feature's shard,
// copying the base's map on first touch.
func (a *applier) shardFor(id features.FeatureID) *shard {
	s := int(uint32(id) & a.t.mask)
	if !a.owned[s] {
		a.t.shards[s].posts = maps.Clone(a.t.shards[s].posts)
		if a.t.shards[s].posts == nil {
			a.t.shards[s].posts = make(map[features.FeatureID]PostingList)
		}
		a.owned[s] = true
	}
	return &a.t.shards[s]
}

func (a *applier) apply(op mutOp) {
	switch op.kind {
	case opAppend:
		for _, f := range op.feats {
			a.insert(f.Key, Posting{Graph: op.graph, Count: f.Count, Locs: f.Locs})
		}
	case opRemove:
		for _, k := range op.scrub {
			a.removePosting(k, op.graph)
		}
		if op.swapped != op.graph {
			for _, f := range op.feats {
				a.removePosting(f.Key, op.swapped)
			}
			for _, f := range op.feats {
				a.insert(f.Key, Posting{Graph: op.graph, Count: f.Count, Locs: f.Locs})
			}
		}
	}
}

// insert adds one posting for key, interning it and resurrecting it from
// the dead set when the feature was drained from this trie.
func (a *applier) insert(key string, p Posting) {
	id := a.t.dict.Intern(key)
	sh := a.shardFor(id)
	ps, editing := a.editing[id]
	if !editing {
		delete(a.t.dead, id) // no-op unless the feature was drained
		pl := sh.posts[id]
		ps = pl.appendPostings(make([]Posting, 0, pl.Len()+4))
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Graph >= p.Graph })
	if i < len(ps) && ps[i].Graph == p.Graph {
		ps[i].Count += p.Count
		ps[i].Locs = unionSorted(ps[i].Locs, p.Locs) // replaces, never mutates
	} else {
		ps = append(ps, Posting{})
		copy(ps[i+1:], ps[i:])
		ps[i] = Posting{Graph: p.Graph, Count: p.Count, Locs: append([]int32(nil), p.Locs...)}
	}
	a.editing[id] = ps
}

// removePosting drops the posting of graph g under key, if present. A
// feature drained to zero postings is deleted and its ID retired to the
// dead set.
func (a *applier) removePosting(key string, g int32) {
	id, ok := a.t.dict.Lookup(key)
	if !ok {
		return
	}
	sh := a.shardFor(id)
	ps, editing := a.editing[id]
	if !editing {
		pl, seen := sh.posts[id]
		if !seen {
			return
		}
		if _, member := pl.Rank(g); !member {
			return // avoid materialising a feature this op does not touch
		}
		ps = pl.appendPostings(make([]Posting, 0, pl.Len()))
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Graph >= g })
	if i >= len(ps) || ps[i].Graph != g {
		return
	}
	if len(ps) == 1 {
		delete(sh.posts, id)
		delete(a.editing, id)
		if a.t.dead == nil {
			a.t.dead = make(map[features.FeatureID]struct{})
		}
		a.t.dead[id] = struct{}{}
		return
	}
	ps = append(ps[:i], ps[i+1:]...)
	a.editing[id] = ps
}
