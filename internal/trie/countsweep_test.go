package trie

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// listOfKind builds a posting list over the ascending ids with the given
// counts, forcing the container kind instead of the canonical choice so
// every sweep runs over the same member set.
func listOfKind(kind ContainerKind, ids, counts []int32) PostingList {
	pl := PostingList{ids: buildContainer(kind, append([]int32(nil), ids...))}
	for _, c := range counts {
		if c != 1 {
			pl.counts = append([]int32(nil), counts...)
			break
		}
	}
	return pl
}

var allKinds = []ContainerKind{KindArray, KindBitmap, KindRuns}

// keepCountGERef is the brute-force survivor check.
func keepCountGERef(ids, members, counts []int32, want int32) []int32 {
	count := map[int32]int32{}
	for i, g := range members {
		count[g] = counts[i]
	}
	var out []int32
	for _, g := range ids {
		if c, ok := count[g]; ok && c >= want {
			out = append(out, g)
		}
	}
	return out
}

func TestKeepCountGEEdges(t *testing.T) {
	// Two runs in the first bitmap word, one member in the middle word
	// and one on the very last bit of the last word (191 = 2·64+63).
	members := []int32{64, 65, 66, 70, 71, 130, 191}
	counts := []int32{1, 3, 2, 2, 5, 4, 3}
	cases := []struct {
		name string
		ids  []int32
		want int32
		keep []int32
	}{
		{"below span", []int32{0, 5, 63}, 1, nil},
		{"above span", []int32{192, 500, 1 << 20}, 1, nil},
		{"non-members", []int32{67, 68, 69, 72, 129, 131, 190}, 1, nil},
		{"last word", []int32{191}, 3, []int32{191}},
		{"last word below threshold", []int32{191}, 4, nil},
		{"mixed", []int32{3, 64, 65, 66, 67, 70, 71, 130, 190, 191, 200}, 2, []int32{65, 66, 70, 71, 130, 191}},
		{"high threshold", []int32{64, 65, 66, 70, 71, 130, 191}, 5, []int32{71}},
		{"empty", nil, 1, nil},
	}
	for _, kind := range allKinds {
		pl := listOfKind(kind, members, counts)
		if pl.IDs().Kind() != kind {
			t.Fatalf("premise: built %v, want %v", pl.IDs().Kind(), kind)
		}
		for _, tc := range cases {
			got := pl.KeepCountGE(append([]int32(nil), tc.ids...), tc.want)
			if len(got) != 0 || len(tc.keep) != 0 {
				if !reflect.DeepEqual(got, tc.keep) {
					t.Errorf("%v %s: got %v, want %v", kind, tc.name, got, tc.keep)
				}
			}
		}
	}
	// Uniform counts (counts == nil): membership alone decides want ≤ 1.
	for _, kind := range allKinds {
		pl := listOfKind(kind, members, []int32{1, 1, 1, 1, 1, 1, 1})
		got := pl.KeepCountGE([]int32{1, 64, 67, 130, 191, 300}, 1)
		if want := []int32{64, 130, 191}; !reflect.DeepEqual(got, want) {
			t.Errorf("%v uniform: got %v, want %v", kind, got, want)
		}
		if got := pl.KeepCountGE([]int32{64, 130}, 2); len(got) != 0 {
			t.Errorf("%v uniform threshold 2: got %v", kind, got)
		}
	}
}

func TestKeepCountGEMultiRun(t *testing.T) {
	// Runs [10,12], [20], [30,35]: ranks 0-2, 3, 4-9.
	members := []int32{10, 11, 12, 20, 30, 31, 32, 33, 34, 35}
	counts := []int32{1, 2, 3, 4, 5, 1, 2, 3, 4, 6}
	pl := listOfKind(KindRuns, members, counts)
	if got := len(pl.IDs().(*RunContainer).Runs()); got != 3 {
		t.Fatalf("premise: %d runs, want 3", got)
	}
	ids := []int32{9, 11, 12, 13, 20, 21, 29, 30, 33, 35, 36}
	for want := int32(0); want <= 7; want++ {
		got := pl.KeepCountGE(append([]int32(nil), ids...), want)
		ref := keepCountGERef(ids, members, counts, want)
		if len(got) != 0 || len(ref) != 0 {
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("want≥%d: got %v, ref %v", want, got, ref)
			}
		}
	}
}

// TestKeepCountGEMatchesBruteForce checks KeepCountGE on random member
// sets, counts, probes and thresholds over all three kinds.
func TestKeepCountGEMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		span := 1 + rng.Intn(400)
		base := int32(rng.Intn(200))
		var members, counts []int32
		for g := int32(0); g < int32(span); g++ {
			if rng.Intn(3) != 0 {
				members = append(members, base+g)
				counts = append(counts, 1+int32(rng.Intn(4)*rng.Intn(2)))
			}
		}
		if len(members) == 0 {
			continue
		}
		var ids []int32
		for g := int32(0); g < base+int32(span)+70; g++ {
			if rng.Intn(4) == 0 {
				ids = append(ids, g)
			}
		}
		want := int32(rng.Intn(5))
		ref := keepCountGERef(ids, members, counts, want)
		for _, kind := range allKinds {
			pl := listOfKind(kind, members, counts)
			got := pl.KeepCountGE(append([]int32(nil), ids...), want)
			if len(got) != 0 || len(ref) != 0 {
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("trial %d %v want≥%d: KeepCountGE %v, ref %v", trial, kind, want, got, ref)
				}
			}
		}
	}
}

// TestParallelForCarriesPanicHome pins the fan-out's panic contract: the
// first worker panic is re-raised on the caller's goroutine with its value
// unchanged, and only after every other worker has finished.
func TestParallelForCarriesPanicHome(t *testing.T) {
	const n, workers = 64, 4
	fault := &ShardFaultError{Shard: 3}
	var finished atomic.Int32
	r := func() (r any) {
		defer func() { r = recover() }()
		ParallelFor(n, workers, func(_ int, claim func() int) {
			for i := claim(); i >= 0; i = claim() {
				if i == 0 {
					panic(fault)
				}
				time.Sleep(100 * time.Microsecond)
			}
			finished.Add(1)
		})
		return nil
	}()
	if got, ok := r.(*ShardFaultError); !ok || got != fault {
		t.Fatalf("recovered %#v, want the worker's *ShardFaultError unchanged", r)
	}
	if got := finished.Load(); got != workers-1 {
		t.Fatalf("%d of %d other workers finished before the re-panic", got, workers-1)
	}
}
