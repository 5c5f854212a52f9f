package index

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/features"
	"repro/internal/trie"
)

// cfView is one query feature's intersection operand: the feature's whole
// posting list, whose container is a superset of the graphs passing the
// feature's count threshold. want > 0 marks a thresholded feature, checked
// on its group's survivors only; want == 0 admits every posting.
type cfView struct {
	pl   trie.PostingList
	want int32
}

// CountFilterScratch holds the reusable buffers of one count-filter pass:
// the feature-enumeration scratch, the shard-grouped feature copy, the
// per-feature views, and the intersection scratch.
type CountFilterScratch struct {
	Feat *features.Scratch

	feats    []features.IDCount // query features regrouped by shard
	shardOff []int32            // per-shard group boundaries (len K+1)
	shardCur []int32            // scatter cursors during grouping
	views    []cfView           // per-feature views
	groups   [][3]int           // per-shard group: [views start, views end, min view len]
	vbuf     []View             // per-group operand assembly
	vs       ViewScratch        // serial intersection scratch
	cur      []int32            // running cross-shard partial result
	parts    [][]int32          // per-group partials (parallel fan-out)
	buf      [2][]int32         // fold buffers for the parallel path
}

var countFilterPool = sync.Pool{
	New: func() any { return &CountFilterScratch{Feat: features.NewScratch()} },
}

// GetCountFilterScratch borrows a scratch from the shared pool.
func GetCountFilterScratch() *CountFilterScratch {
	return countFilterPool.Get().(*CountFilterScratch)
}

// PutCountFilterScratch returns a scratch to the pool. Any FilterCountGE
// result aliasing it must have been copied out first.
func PutCountFilterScratch(s *CountFilterScratch) { countFilterPool.Put(s) }

// parallelGroupMin is the per-group rarest-container cardinality above
// which a multi-group query fans its shard-group intersections over
// goroutines: below it the serial partial-threading (the globally rarest
// list capping all later groups) beats any parallel speedup.
const parallelGroupMin = 1 << 13

// FilterCountGE computes the candidate ids for a count-based feature filter
// over tr: graphs holding every feature of qf with at least the wanted
// multiplicity.
//
// Containers first, counts on survivors. Every feature contributes its
// whole posting container to the intersection — for a feature with a count
// threshold above 1 that is a superset of the graphs passing it — so
// bitmap∧bitmap pairs collapse to word-ANDs and sparse partials probe dense
// containers in O(1) per element (IntersectViews), and no posting list is
// ever walked or materialised. A thresholded feature's counts are tested
// only on the ids that survive its group's intersection, by one sorted
// rank sweep of its container (trie.PostingList.KeepCountGE). A threshold
// above 1 against a list whose counts are all 1 empties the answer at once.
//
// The pass follows the store's shard layout: query features are grouped by
// postings shard and each shard's lists are intersected as one group (all
// probes against one small per-shard map, so the map stays cache-resident
// across the group). Shard groups are processed in ascending order of
// their rarest container, with the running cross-shard partial — already
// count-checked — threaded into each group's intersection, so the globally
// rarest list still prunes all later work. Every slice-vs-slice step picks
// merge vs gallop from the trie's calibrated probe cost. Very large
// queries — every group's rarest container at least parallelGroupMin — fan
// the per-group intersections and count checks over bounded goroutines and
// fold the partials rarest-first. The result may alias s and is only valid
// until the scratch is reused.
//
// Callers must handle the empty-feature case (len(qf.Counts) == 0 &&
// qf.Unknown == 0) themselves: the matching universe (all dataset
// positions, all cached entries, ...) differs per index. Shared by GGSX,
// Grapes and iGQ's Isub.
func FilterCountGE(tr *trie.Trie, qf features.IDSet, s *CountFilterScratch) []int32 {
	if qf.Unknown > 0 {
		// Some query feature was never seen by this index's dictionary, so
		// no indexed graph contains it.
		return nil
	}
	if len(qf.Counts) == 0 {
		return nil
	}
	feats, off := s.groupByShard(tr, qf.Counts)

	// Phase 1: one view per feature, grouped by shard.
	s.views, s.groups = s.views[:0], s.groups[:0]
	for sh := 0; sh < tr.ShardCount(); sh++ {
		lo, hi := off[sh], off[sh+1]
		if lo == hi {
			continue
		}
		gStart := len(s.views)
		minLen := int(^uint(0) >> 1)
		for _, fc := range feats[lo:hi] {
			pl := tr.GetByID(fc.ID)
			if pl.Len() == 0 {
				return nil
			}
			want := fc.Count
			switch {
			case want <= 0 || (want == 1 && pl.UniformCounts()):
				want = 0 // the threshold admits every posting
			case pl.UniformCounts():
				return nil // threshold ≥ 2 against all-count-1 postings
			}
			minLen = min(minLen, pl.Len())
			s.views = append(s.views, cfView{pl: pl, want: want})
		}
		s.groups = append(s.groups, [3]int{gStart, len(s.views), minLen})
	}

	// Phase 2: intersect shard by shard, rarest shard first, folding the
	// running partial into each group so it caps the group's work.
	groups := s.groups
	slices.SortFunc(groups, func(a, b [3]int) int { return a[2] - b[2] })
	probeCost := tr.GallopProbeCost()
	if len(groups) >= 2 && groups[0][2] >= parallelGroupMin && runtime.GOMAXPROCS(0) > 1 {
		return s.filterParallel(probeCost)
	}
	var cur []int32
	for gi, g := range groups {
		vbuf := s.vbuf[:0]
		if gi > 0 {
			vbuf = append(vbuf, View{IDs: cur})
		}
		vbuf = s.appendGroupViews(vbuf, g)
		s.vbuf = vbuf
		part := IntersectViews(vbuf, probeCost, &s.vs)
		// Copy the partial out of the intersection scratch (the next
		// group's IntersectViews reuses it, and a lone array operand is
		// returned as the container's own slice) before the count check
		// compacts it in place.
		s.cur = s.keepCounts(append(s.cur[:0], part...), g)
		cur = s.cur
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// keepCounts compacts ids in place to those passing the count threshold
// of every thresholded feature of group g.
func (s *CountFilterScratch) keepCounts(ids []int32, g [3]int) []int32 {
	for _, v := range s.views[g[0]:g[1]] {
		if len(ids) == 0 {
			break
		}
		if v.want > 0 {
			ids = v.pl.KeepCountGE(ids, v.want)
		}
	}
	return ids
}

// appendGroupViews assembles one shard group's intersection operands.
func (s *CountFilterScratch) appendGroupViews(dst []View, g [3]int) []View {
	for _, v := range s.views[g[0]:g[1]] {
		dst = append(dst, View{C: v.pl.IDs()})
	}
	return dst
}

// filterParallel computes each shard group's intersection and count
// check on its own goroutine (bounded by GOMAXPROCS, 4, and the group
// count), then folds the per-group partials rarest-first. Used only when
// every group's rarest container clears parallelGroupMin — large enough
// that the lost cross-group partial-threading is cheaper than the serial
// wall-clock.
func (s *CountFilterScratch) filterParallel(probeCost int) []int32 {
	groups := s.groups
	if cap(s.parts) < len(groups) {
		s.parts = make([][]int32, len(groups))
	}
	parts := s.parts[:len(groups)]
	workers := min(runtime.GOMAXPROCS(0), len(groups), 4)
	trie.ParallelFor(len(groups), workers, func(_ int, claim func() int) {
		for gi := claim(); gi >= 0; gi = claim() {
			vs := GetViewScratch()
			views := s.appendGroupViews(make([]View, 0, groups[gi][1]-groups[gi][0]), groups[gi])
			part := IntersectViews(views, probeCost, vs)
			// copy out before pooling, then check counts in place
			parts[gi] = s.keepCounts(append(parts[gi][:0], part...), groups[gi])
			PutViewScratch(vs)
		}
	})
	slices.SortFunc(parts, func(a, b []int32) int { return len(a) - len(b) })
	cur := parts[0]
	which := 0
	for _, p := range parts[1:] {
		if len(cur) == 0 {
			return nil
		}
		s.buf[which] = IntersectIntoCost(s.buf[which], cur, p, probeCost)
		cur = s.buf[which]
		which = 1 - which
	}
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// groupByShard scatters the query features into shard-contiguous order
// (counting sort over ShardOf). qf.Counts itself is left untouched: it is
// shared with the caller's other index probes, which may run concurrently.
func (s *CountFilterScratch) groupByShard(tr *trie.Trie, counts []features.IDCount) ([]features.IDCount, []int32) {
	k := tr.ShardCount()
	if cap(s.shardOff) < k+1 {
		s.shardOff = make([]int32, k+1)
		s.shardCur = make([]int32, k)
	}
	off := s.shardOff[:k+1]
	cur := s.shardCur[:k]
	for i := range off {
		off[i] = 0
	}
	for _, fc := range counts {
		off[tr.ShardOf(fc.ID)+1]++
	}
	for i := 1; i <= k; i++ {
		off[i] += off[i-1]
	}
	copy(cur, off[:k])
	if cap(s.feats) < len(counts) {
		s.feats = make([]features.IDCount, len(counts))
	}
	feats := s.feats[:len(counts)]
	for _, fc := range counts {
		sh := tr.ShardOf(fc.ID)
		feats[cur[sh]] = fc
		cur[sh]++
	}
	return feats, off
}

// AllIDs returns the identity universe [0, n) — the empty-query candidate
// set for dense dataset indexes.
func AllIDs(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
