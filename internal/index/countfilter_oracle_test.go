package index

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/trie"
)

// bruteCountGE is the direct per-graph count check FilterCountGE must
// match: the graphs holding every keys[i] with a count of at least
// wants[i] (membership is required even when wants[i] ≤ 0). Keys absent
// from ds match nothing.
func bruteCountGE(ds map[string][]trie.Posting, keys []string, wants []int32) []int32 {
	count := make([]map[int32]int32, len(keys))
	for i, k := range keys {
		count[i] = map[int32]int32{}
		for _, p := range ds[k] {
			count[i][p.Graph] = p.Count
		}
	}
	var out []int32
	for _, p := range ds[keys[0]] {
		ok := true
		for i := range keys {
			if c, member := count[i][p.Graph]; !member || c < wants[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p.Graph)
		}
	}
	return SortIDs(out)
}

// withCounts returns a copy of ds where about half the postings carry a
// count of 2..4, so thresholds of 2 and 3 both keep and drop graphs.
func withCounts(seed int64, ds map[string][]trie.Posting) map[string][]trie.Posting {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string][]trie.Posting, len(ds))
	for k, ps := range ds {
		cp := append([]trie.Posting(nil), ps...)
		for i := range cp {
			if rng.Intn(2) == 0 {
				cp[i].Count = 2 + int32(rng.Intn(3))
			}
		}
		out[k] = cp
	}
	return out
}

// withRuns adds six long-run lists over [0, nGraphs) to ds — runs of
// 60..259 graphs with gaps of 30..129, which the adaptive policy encodes
// as run containers.
func withRuns(seed int64, ds map[string][]trie.Posting, nGraphs int) map[string][]trie.Posting {
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < 6; f++ {
		var ps []trie.Posting
		for g := rng.Intn(100); g < nGraphs; g += 30 + rng.Intn(100) {
			for end := min(g+60+rng.Intn(200), nGraphs); g < end; g++ {
				ps = append(ps, trie.Posting{Graph: int32(g), Count: 1})
			}
		}
		ds[fmt.Sprintf("r:%d", f)] = ps
	}
	return ds
}

// filterCopy runs FilterCountGE on a fresh scratch and copies the result
// out of it.
func filterCopy(tr *trie.Trie, keys []string, wants []int32) []int32 {
	s := GetCountFilterScratch()
	defer PutCountFilterScratch(s)
	got := FilterCountGE(tr, idSetFor(tr, keys, wants), s)
	if len(got) == 0 {
		return nil
	}
	return append([]int32(nil), got...)
}

func kindOf(tr *trie.Trie, key string) trie.ContainerKind {
	id, _ := tr.Dict().Lookup(key)
	return tr.GetByID(id).IDs().Kind()
}

// TestFilterCountGEMatchesBruteForce checks FilterCountGE against a direct
// per-graph count check — not against itself under another container
// policy — over thresholds 0..3, array, bitmap and run containers, and 1
// and 4 shards, including queries whose rarest container is thresholded.
func TestFilterCountGEMatchesBruteForce(t *testing.T) {
	ds := withCounts(8, withRuns(6, cfDataset(5, 36, 900), 900))
	keys := slices.Sorted(maps.Keys(ds))
	for _, policy := range []trie.ContainerPolicy{trie.AdaptiveContainers, trie.ArrayOnlyContainers} {
		for _, shards := range []int{1, 4} {
			tr := buildCFTrie(policy, shards, ds)
			kinds := map[trie.ContainerKind]bool{}
			rng := rand.New(rand.NewSource(int64(shards)))
			for q := 0; q < 300; q++ {
				nk := 1 + rng.Intn(4)
				qk := make([]string, nk)
				wants := make([]int32, nk)
				for i := range qk {
					qk[i] = keys[rng.Intn(len(keys))]
					wants[i] = int32(rng.Intn(4))
					if wants[i] >= 2 {
						kinds[kindOf(tr, qk[i])] = true
					}
				}
				qk, wants = dedupQuery(qk, wants)
				if got, want := filterCopy(tr, qk, wants), bruteCountGE(ds, qk, wants); !reflect.DeepEqual(got, want) {
					t.Fatalf("policy=%d shards=%d query %v/%v: got %v, brute force %v", policy, shards, qk, wants, got, want)
				}
			}
			if policy == trie.AdaptiveContainers && len(kinds) != 3 {
				t.Fatalf("premise: thresholds ≥ 2 met only container kinds %v", kinds)
			}

			// The rarest container itself thresholded, for every kind: pair
			// each list with every larger one.
			rarest := map[trie.ContainerKind]int{}
			for _, a := range keys {
				for _, b := range keys {
					if len(ds[a]) >= len(ds[b]) {
						continue
					}
					for want := int32(2); want <= 3; want++ {
						qk, wants := []string{a, b}, []int32{want, 1}
						if got, ref := filterCopy(tr, qk, wants), bruteCountGE(ds, qk, wants); !reflect.DeepEqual(got, ref) {
							t.Fatalf("policy=%d shards=%d rarest %s≥%d with %s: got %v, brute force %v", policy, shards, a, want, b, got, ref)
						}
					}
					rarest[kindOf(tr, a)]++
				}
			}
			if policy == trie.AdaptiveContainers && len(rarest) != 3 {
				t.Fatalf("premise: thresholded rarest lists covered only kinds %v", rarest)
			}
		}
	}
}

// dedupQuery drops repeated keys (a query holds each feature once),
// keeping the first threshold.
func dedupQuery(keys []string, wants []int32) ([]string, []int32) {
	seen := map[string]bool{}
	var ks []string
	var ws []int32
	for i, k := range keys {
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
			ws = append(ws, wants[i])
		}
	}
	return ks, ws
}

// TestFilterCountGEThresholdEmptiesMidFold builds three single-feature
// shard groups — rarest "a", then "b", then "c" — where b's threshold
// rejects every graph surviving a∩b, so the fold must end empty in its
// middle group; the same scratch must then answer a full query correctly.
func TestFilterCountGEThresholdEmptiesMidFold(t *testing.T) {
	ds := map[string][]trie.Posting{}
	for g := int32(0); g < 100; g++ {
		if g < 10 {
			ds["a"] = append(ds["a"], trie.Posting{Graph: g, Count: 1})
		}
		if g < 20 {
			c := int32(1)
			if g >= 15 {
				c = 2
			}
			ds["b"] = append(ds["b"], trie.Posting{Graph: g, Count: c})
		}
		ds["c"] = append(ds["c"], trie.Posting{Graph: g, Count: 3})
	}
	for _, policy := range []trie.ContainerPolicy{trie.AdaptiveContainers, trie.ArrayOnlyContainers} {
		tr := trie.NewSharded(features.NewDict(), 4)
		tr.SetContainerPolicy(policy)
		for _, k := range []string{"a", "b", "c"} { // interned in order: shards 0, 1, 2
			for _, p := range ds[k] {
				tr.Insert(k, p)
			}
		}
		shardsSeen := map[int]bool{}
		for _, k := range []string{"a", "b", "c"} {
			id, _ := tr.Dict().Lookup(k)
			shardsSeen[tr.ShardOf(id)] = true
		}
		if len(shardsSeen) != 3 {
			t.Fatalf("premise: features share shards %v", shardsSeen)
		}
		s := GetCountFilterScratch()
		keys := []string{"c", "b", "a"}
		for _, tc := range []struct {
			wants []int32
			name  string
		}{
			{[]int32{1, 2, 1}, "b empties the partial"},
			{[]int32{3, 1, 1}, "full pass after"},
			{[]int32{3, 2, 0}, "b empties again"},
			{[]int32{4, 1, 1}, "c empties the last group"},
		} {
			got := FilterCountGE(tr, idSetFor(tr, keys, tc.wants), s)
			if len(got) == 0 {
				got = nil
			}
			if want := bruteCountGE(ds, keys, tc.wants); !reflect.DeepEqual(got, want) {
				t.Errorf("policy=%d %s: got %v, brute force %v", policy, tc.name, got, want)
			}
		}
		PutCountFilterScratch(s)
	}
}

// TestFilterCountGEZeroAllocs is the allocation gate: once its scratch is
// warm, a count filter with thresholded features over bitmap, array and
// run containers allocates nothing.
func TestFilterCountGEZeroAllocs(t *testing.T) {
	// A dense bitmap list (count 2 on even graphs) thresholded at 2, a
	// two-run list and a sparse array list, with a non-empty answer.
	ds := map[string][]trie.Posting{}
	for g := int32(0); g < 900; g++ {
		if g%7 != 0 {
			ds["d"] = append(ds["d"], trie.Posting{Graph: g, Count: 1 + (g+1)%2})
		}
		if g < 100 || (g >= 200 && g < 300) {
			ds["r"] = append(ds["r"], trie.Posting{Graph: g, Count: 1})
		}
		if g%37 == 0 {
			ds["s"] = append(ds["s"], trie.Posting{Graph: g, Count: 1})
		}
	}
	tr := buildCFTrie(trie.AdaptiveContainers, 4, ds)
	keys, wants := []string{"d", "r", "s"}, []int32{2, 1, 1}
	for i, want := range []trie.ContainerKind{trie.KindBitmap, trie.KindRuns, trie.KindArray} {
		if got := kindOf(tr, keys[i]); got != want {
			t.Fatalf("premise: %q is %v, want %v", keys[i], got, want)
		}
	}
	if len(bruteCountGE(ds, keys, wants)) == 0 {
		t.Fatal("premise: empty answer")
	}
	qf := idSetFor(tr, keys, wants)
	s := GetCountFilterScratch()
	defer PutCountFilterScratch(s)
	FilterCountGE(tr, qf, s)
	got := fmt.Sprint(FilterCountGE(tr, qf, s))
	if allocs := testing.AllocsPerRun(50, func() { FilterCountGE(tr, qf, s) }); allocs != 0 {
		t.Fatalf("FilterCountGE allocates %.1f times per call on a warm scratch (result %s)", allocs, got)
	}
}
