package ggsx

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/features"
	"repro/internal/index"
	"repro/internal/trie"
)

// FilterByCounts is the string-keyed reference count filter: a direct
// threshold check of every posting of every wanted key, folded by sorted
// intersection. The oracle for FilterFresh over index.FilterCountGE.
func FilterByCounts(tr *trie.Trie, want map[string]int, nGraphs int) []int32 {
	if len(want) == 0 {
		out := make([]int32, nGraphs)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	var cand []int32
	first := true
	for k, c := range want {
		posts := tr.Get(k)
		var ids []int32
		for _, p := range posts {
			if int(p.Count) >= c {
				ids = append(ids, p.Graph)
			}
		}
		// posts (and hence ids) are sorted by construction
		if first {
			cand = ids
			first = false
		} else {
			cand = index.IntersectSorted(cand, ids)
		}
		if len(cand) == 0 {
			return nil
		}
	}
	return cand
}

// Differential test pinning the legacy string-keyed count filter
// (FilterByCounts) against the ID-keyed hot path (FilterFresh) on
// randomized datasets: both must produce the same candidates for the same
// query multiset, across shard layouts.
func TestFilterByCountsMatchesFilterFresh(t *testing.T) {
	const maxLen = 3
	for seed := int64(0); seed < 6; seed++ {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := randomDB(20+rng.Intn(20), seed+100)
				x := New(Options{MaxPathLen: maxLen, Shards: shards})
				x.Build(db)

				for qi, q := range randomQueries(db, 20, seed+200) {
					// Legacy path: string-keyed occurrence map.
					want := features.Paths(q, features.PathOptions{MaxLen: maxLen})
					legacy := FilterByCounts(x.tr, want.Counts, len(db))

					// Hot path: interned IDSet through the pooled scratch.
					s := index.GetCountFilterScratch()
					qf := features.PathsID(q, features.PathOptions{MaxLen: maxLen}, x.dict, s.Feat, false)
					fresh := FilterFresh(x.tr, qf, len(db), s)
					index.PutCountFilterScratch(s)

					if len(legacy) != len(fresh) {
						t.Fatalf("query %d: legacy %v != fresh %v", qi, legacy, fresh)
					}
					for i := range legacy {
						if legacy[i] != fresh[i] {
							t.Fatalf("query %d: legacy %v != fresh %v", qi, legacy, fresh)
						}
					}
				}
			})
		}
	}
}
