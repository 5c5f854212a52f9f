package trie_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/trie"
)

// TestNodeCountFromSortedKeys pins NodeCount to hand-computed values: the
// node count of a trie over a key set is Σ(len(kᵢ) − LCP(kᵢ₋₁, kᵢ)) over
// the keys in bytewise order, the number of distinct non-empty prefixes.
func TestNodeCountFromSortedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string
		want int
	}{
		{"none", nil, 0},
		{"single key", []string{"p:1.2"}, 5},
		{"empty key alone", []string{""}, 0},
		{"empty key with others", []string{"ab", "", "a"}, 2},
		{"shared prefixes", []string{"p:1.3", "p:1.2.4", "p:1.2.3"}, 9},
		{"prefix of another", []string{"abcd", "ab"}, 4},
		{"disjoint", []string{"b", "a.", "c"}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := trie.New()
			for i, k := range tc.keys {
				tr.Insert(k, trie.Posting{Graph: int32(i), Count: 1})
			}
			if got := tr.NodeCount(); got != tc.want {
				t.Errorf("NodeCount = %d, want %d", got, tc.want)
			}
			var walked []string
			tr.Walk(func(k string, _ []trie.Posting) { walked = append(walked, k) })
			want := slices.Clone(tc.keys)
			slices.Sort(want)
			if !slices.Equal(walked, want) {
				t.Errorf("Walk order = %q, want %q", walked, want)
			}
		})
	}
}

// footprint is the absolute size accounting pinned by the golden test.
type footprint struct{ Size, Nodes, Len, Dead int }

func footprintOf(tr *trie.Trie) footprint {
	return footprint{tr.SizeBytes(), tr.NodeCount(), tr.Len(), tr.DeadLen()}
}

// goldenDB is a small seeded dataset. Graph 0 alone carries label 7, so
// removing it drains every feature through that label.
func goldenDB() []*graph.Graph {
	rng := rand.New(rand.NewSource(18))
	db := make([]*graph.Graph, 10)
	for i := range db {
		n := 5 + rng.Intn(4)
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.AddVertex(graph.Label(rng.Intn(4)))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if v == u+1 || rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		db[i] = g
	}
	g := db[0]
	x := g.AddVertex(7)
	g.AddEdge(0, x)
	return db
}

// TestGoldenFootprint pins absolute SizeBytes/NodeCount values of small
// GGSX- and Grapes-style path tries through every path that changes or
// reconstructs the key set: build (sequential and merged), in-place
// RemoveGraph, a draining and a resurrecting Mutation.Apply, a resurrecting
// Builder.Merge, save→load and OpenLazy→Materialize. The differential suites compare these paths with
// each other; this test also catches a drift that moves them all alike.
func TestGoldenFootprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  features.PathOptions
		// built: after the build; inPlace: after RemoveGraph(0); removed:
		// after swap-removing graph 0 through Mutation.Apply; readded: after
		// appending graph 0 back through Mutation.Apply.
		built, inPlace, removed, readded footprint
	}{
		{
			"ggsx", features.PathOptions{MaxLen: 4},
			footprint{74669, 565, 308, 0},
			footprint{69433, 529, 284, 24},
			footprint{69433, 529, 284, 24},
			footprint{74669, 565, 308, 0},
		},
		{
			"grapes", features.PathOptions{MaxLen: 4, Locations: true},
			footprint{101337, 565, 308, 0},
			footprint{93777, 529, 284, 24},
			footprint{93777, 529, 284, 24},
			footprint{101337, 565, 308, 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := goldenDB()
			build := func(workers int) *trie.Trie {
				tr := trie.NewSharded(features.NewDict(), 4)
				ggsx.BuildPaths(tr, db, tc.opt, workers)
				return tr
			}
			check := func(what string, tr *trie.Trie, want footprint) {
				t.Helper()
				if got := footprintOf(tr); got != want {
					t.Errorf("%s: footprint = %+v, want %+v", what, got, want)
				}
			}
			check("sequential build", build(1), tc.built)
			base := build(3)
			check("merged build", base, tc.built)

			inPlace := build(1)
			inPlace.RemoveGraph(0)
			check("RemoveGraph", inPlace, tc.inPlace)
			if inPlace.DeadLen() == 0 {
				t.Fatal("RemoveGraph(0) drained no feature")
			}

			// Swap-remove graph 0 (the last graph moves into its slot), then
			// append it back: the drained features resurrect.
			rest, steps, _, err := index.SwapRemove(db, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			mut := base.NewMutation()
			ggsx.StageRemovals(mut, steps, tc.opt)
			removed := mut.Apply()
			check("Mutation.Apply removal", removed, tc.removed)
			if removed.DeadLen() == 0 {
				t.Fatal("Mutation.Apply removal drained no feature")
			}
			// Staging graph 0 back at its old position through a Builder
			// resurrects the drained features: the trie is the built one again.
			remerged := build(1)
			remerged.RemoveGraph(0)
			b := remerged.NewBuilder(2)
			for _, f := range ggsx.GraphFeatures(features.Paths(db[0], tc.opt)) {
				b.Worker(1).Insert(f.Key, trie.Posting{Graph: 0, Count: f.Count, Locs: f.Locs})
			}
			b.Merge()
			check("Builder.Merge re-add", remerged, tc.built)
			check("base after Apply", base, tc.built)
			mut = removed.NewMutation()
			ggsx.StageAppend(mut, int32(len(rest)), db[:1], tc.opt)
			readded := mut.Apply()
			check("Mutation.Apply re-append", readded, tc.readded)
			if readded.DeadLen() != 0 {
				t.Errorf("re-append left %d dead features", readded.DeadLen())
			}

			for _, tr := range []struct {
				what string
				tr   *trie.Trie
				want footprint
			}{
				{"RemoveGraph", inPlace, tc.inPlace},
				{"removed", removed, tc.removed},
				{"readded", readded, tc.readded},
			} {
				var buf bytes.Buffer
				if _, err := tr.tr.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				// A snapshot carries only live keys: the dead set starts empty.
				want := tr.want
				want.Dead = 0
				loaded := trie.New()
				if _, err := loaded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
				check(tr.what+" save→load", loaded, want)
				lazy := trie.New()
				if _, _, err := lazy.OpenLazy(bytes.NewReader(buf.Bytes()), trie.LazyOptions{}); err != nil {
					t.Fatal(err)
				}
				if err := lazy.Materialize(); err != nil {
					t.Fatal(err)
				}
				check(tr.what+" OpenLazy→Materialize", lazy, want)
			}
		})
	}
}
