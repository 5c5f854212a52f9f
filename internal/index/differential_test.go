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

// cfDataset builds one membership table covering every container regime:
// tiny sets, sparse scatter, dense scatter and clustered runs, with a few
// non-unit counts so the survivor count check runs too.
func cfDataset(seed int64, nFeats, nGraphs int) map[string][]trie.Posting {
	rng := rand.New(rand.NewSource(seed))
	ds := make(map[string][]trie.Posting, nFeats)
	for f := 0; f < nFeats; f++ {
		key := fmt.Sprintf("q:%d.%d", f%9, f)
		var ps []trie.Posting
		add := func(g int) {
			p := trie.Posting{Graph: int32(g), Count: 1}
			if rng.Intn(6) == 0 {
				p.Count = int32(2 + rng.Intn(3))
			}
			ps = append(ps, p)
		}
		switch f % 4 {
		case 0:
			for g := 0; g < 1+rng.Intn(4); g++ {
				add(rng.Intn(nGraphs))
			}
		case 1:
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(15) == 0 {
					add(g)
				}
			}
		case 2:
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(8) != 0 {
					add(g)
				}
			}
		default:
			for g := 0; g < nGraphs; {
				for j, n := 0, 1+rng.Intn(50); j < n && g < nGraphs; j++ {
					add(g)
					g++
				}
				g += 1 + rng.Intn(40)
			}
		}
		ds[key] = ps
	}
	return ds
}

func buildCFTrie(policy trie.ContainerPolicy, shards int, ds map[string][]trie.Posting) *trie.Trie {
	tr := trie.NewSharded(features.NewDict(), shards)
	tr.SetContainerPolicy(policy)
	for k, ps := range ds {
		for _, p := range ps {
			tr.Insert(k, p)
		}
	}
	return tr
}

// idSetFor resolves a key/count query against one trie's dictionary.
func idSetFor(tr *trie.Trie, keys []string, counts []int32) features.IDSet {
	var qf features.IDSet
	for i, k := range keys {
		id, ok := tr.Dict().Lookup(k)
		if !ok {
			qf.Unknown++
			continue
		}
		qf.Counts = append(qf.Counts, features.IDCount{ID: id, Count: counts[i]})
	}
	return qf
}

// TestFilterCountGEAdaptiveMatchesArray is the read-path differential:
// FilterCountGE over adaptive containers must return the identical
// candidate list as over the forced-array reference, across shard layouts,
// probe costs, feature mixes and count thresholds — covering the bitmap
// word-AND chain, container probes and the survivor count check.
func TestFilterCountGEAdaptiveMatchesArray(t *testing.T) {
	ds := cfDataset(5, 36, 900)
	var allKeys []string
	for k := range ds {
		allKeys = append(allKeys, k)
	}
	for _, shards := range []int{1, 4} {
		adaptive := buildCFTrie(trie.AdaptiveContainers, shards, ds)
		reference := buildCFTrie(trie.ArrayOnlyContainers, shards, ds)
		for _, probeCost := range []int{0, 1, 4} {
			adaptive.SetGallopProbeCost(probeCost)
			reference.SetGallopProbeCost(probeCost)
			rng := rand.New(rand.NewSource(int64(shards*10 + probeCost)))
			for q := 0; q < 200; q++ {
				nk := 1 + rng.Intn(5)
				keys := make([]string, nk)
				counts := make([]int32, nk)
				for i := range keys {
					keys[i] = allKeys[rng.Intn(len(allKeys))]
					counts[i] = int32(rng.Intn(3))
				}
				sa := GetCountFilterScratch()
				ga := FilterCountGE(adaptive, idSetFor(adaptive, keys, counts), sa)
				ga = append([]int32(nil), ga...)
				PutCountFilterScratch(sa)
				sr := GetCountFilterScratch()
				gr := FilterCountGE(reference, idSetFor(reference, keys, counts), sr)
				gr = append([]int32(nil), gr...)
				PutCountFilterScratch(sr)
				if !reflect.DeepEqual(ga, gr) {
					t.Fatalf("shards=%d probeCost=%d query %v/%v: adaptive %v != reference %v",
						shards, probeCost, keys, counts, ga, gr)
				}
			}
		}
	}
}

// TestFilterCountGEParallelPath drives a query large enough to clear the
// parallel fan-out gate (every shard group's rarest list ≥ parallelGroupMin)
// and pins it against the serial array reference and a brute-force count
// check — once with unit thresholds and once with thresholds of 2 on
// lists carrying non-unit counts, so the per-group count check runs on the
// parallel path too.
func TestFilterCountGEParallelPath(t *testing.T) {
	const nGraphs = 3 * parallelGroupMin
	rng := rand.New(rand.NewSource(17))
	counts := rand.New(rand.NewSource(18))
	ds := make(map[string][]trie.Posting)
	for f := 0; f < 6; f++ {
		var ps []trie.Posting
		for g := 0; g < nGraphs; g++ {
			if rng.Intn(8) != 0 { // dense: bitmap territory, > parallelGroupMin survivors
				p := trie.Posting{Graph: int32(g), Count: 1}
				if f < 2 && counts.Intn(2) == 0 {
					p.Count = 2 + int32(counts.Intn(2))
				}
				ps = append(ps, p)
			}
		}
		ds[fmt.Sprintf("big:%d", f)] = ps
	}
	adaptive := buildCFTrie(trie.AdaptiveContainers, 4, ds)
	reference := buildCFTrie(trie.ArrayOnlyContainers, 4, ds)
	keys := slices.Sorted(maps.Keys(ds))
	for _, thresholded := range []bool{false, true} {
		wants := make([]int32, len(keys))
		for i, k := range keys {
			wants[i] = 1
			if thresholded && (k == "big:0" || k == "big:1") {
				wants[i] = 2
			}
		}
		ga := filterCopy(adaptive, keys, wants)
		gr := filterCopy(reference, keys, wants)
		if len(ga) == 0 {
			t.Fatalf("thresholded=%v: premise: dense intersection came back empty", thresholded)
		}
		if !reflect.DeepEqual(ga, gr) {
			t.Fatalf("thresholded=%v: parallel adaptive result diverges: %d vs %d candidates", thresholded, len(ga), len(gr))
		}
		if want := bruteCountGE(ds, keys, wants); !reflect.DeepEqual(ga, want) {
			t.Fatalf("thresholded=%v: %d candidates, brute force %d", thresholded, len(ga), len(want))
		}
	}
}
