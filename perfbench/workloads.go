package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	igq "repro"
)

// workload is one set of inputs the benchmark runs. The query stream
// derives from the run's seed; the program under test only ever sees the
// generated graphs.
type workload struct {
	name   string
	served bool
	// data is the dataset. Its seed is fixed, the one the experiments
	// package gives these specs at its default seed: which graphs a
	// stream makes hot or expensive is a property of the dataset, and a
	// dataset per run seed moved qps by 20% between seeds, more than any
	// bound a change can be held to.
	data igq.DatasetSpec
	// stream describes the query streams; their seeds derive from the
	// run's seed and their length is set here.
	stream igq.WorkloadSpec
	// segments is how many independent streams a run measures, each on a
	// freshly built engine for an equal share of the run. The cache
	// settles in a state that depends on its stream's history, so one
	// stream per run moved iso_tests_per_query by 19% between seeds.
	segments int
	// warmup is the stream prefix run before timing, so the cache reaches
	// its steady state first.
	warmup int
	// streamLen is the number of stream queries generated after the
	// warm-up; the closed loop wraps around when a fast run uses them all.
	streamLen int
}

var workloads = []workload{
	{
		// The paper's headline case: a skewed stream whose hot set fits
		// in C=500, so most queries are answered or pruned by the cache.
		name:      "aids-zipf",
		data:      withSeed(igq.AIDSSpec().Scaled(0.05, 1.0), 11),
		stream:    igq.WorkloadSpec{GraphDist: igq.Zipf, NodeDist: igq.Zipf, Alpha: 1.4},
		segments:  2,
		warmup:    2000,
		streamLen: 12500,
	},
	{
		// A uniform stream over large graphs: the working set dwarfs the
		// cache, few queries short-circuit and verification dominates.
		name:      "pdbs-uni",
		data:      withSeed(igq.PDBSSpec().Scaled(0.15, 0.1), 12),
		stream:    igq.WorkloadSpec{GraphDist: igq.Uniform, NodeDist: igq.Uniform},
		segments:  2,
		warmup:    1000,
		streamLen: 5000,
	},
	{
		// The aids-zipf dataset and stream served by igqserve -super,
		// alternating sub and super queries, with adds and removes beside.
		name:      "served-mixed",
		served:    true,
		data:      withSeed(igq.AIDSSpec().Scaled(0.05, 1.0), 11),
		stream:    igq.WorkloadSpec{GraphDist: igq.Zipf, NodeDist: igq.Zipf, Alpha: 1.4},
		segments:  1,
		warmup:    2000,
		streamLen: 4000,
	},
}

func withSeed(s igq.DatasetSpec, seed int64) igq.DatasetSpec {
	s.Seed = seed
	return s
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are a workload's generated graphs for one seed.
type inputs struct {
	db      []*igq.Graph
	streams []stream // one per segment
}

// stream is one query stream: a warm-up prefix and the timed rest.
type stream struct {
	warmup, timed []*igq.Graph
}

// inputs generates the dataset and the segments' streams. Segment k of
// seed s uses stream seed s*segments+k, so no two runs share a stream.
func (w workload) inputs(seed int64) inputs {
	in := inputs{db: igq.GenerateDataset(w.data)}
	spec := w.stream
	spec.NumQueries = w.warmup + w.streamLen
	for k := range w.segments {
		spec.Seed = seed*int64(w.segments) + int64(k)
		qs := igq.GenerateWorkload(in.db, spec)
		in.streams = append(in.streams, stream{warmup: qs[:w.warmup], timed: qs[w.warmup:]})
	}
	return in
}

// nclients is the load generator's concurrency: one client per CPU.
func nclients() int { return runtime.NumCPU() }

// graphKey identifies a query graph by its exact vertex labels and edge
// list. Stream extraction is deterministic, so repeated queries of a
// skewed stream share a key and the oracle answers each once.
func graphKey(g *igq.Graph) string {
	b := make([]byte, 0, 8*g.NumVertices())
	for _, l := range g.Labels() {
		b = fmt.Appendf(b, "%d,", l)
	}
	b = append(b, '|')
	g.EdgesLabeled(func(u, v int, l igq.Label) {
		b = fmt.Appendf(b, "%d-%d-%d,", u, v, l)
	})
	return string(b)
}

// oracle answers queries on an engine with its cache disabled: plain
// filter-then-verify over the method alone, which the paper's Theorems 1
// and 2 make the definition of a right iGQ answer. Answers are memoised
// per distinct query graph.
type oracle struct {
	eng  *igq.Engine
	mu   sync.Mutex
	memo map[string][]int32
}

func newOracle(eng *igq.Engine) *oracle {
	return &oracle{eng: eng, memo: map[string][]int32{}}
}

// prepare answers every distinct query of qs, fanned out over nclients.
func (o *oracle) prepare(qs []*igq.Graph) error {
	var todo []*igq.Graph
	seen := map[string]bool{}
	o.mu.Lock()
	for _, q := range qs {
		k := graphKey(q)
		if _, ok := o.memo[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, q)
		}
	}
	o.mu.Unlock()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nclients())
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				res, err := o.eng.Query(context.Background(), todo[i])
				if err != nil {
					errs[c] = err
					return
				}
				o.mu.Lock()
				o.memo[graphKey(todo[i])] = res.IDs
				o.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return nil
}

// check reports whether got is the right answer for q, ignoring positions
// at or beyond limit (graphs a mutator added after the oracle's dataset).
func (o *oracle) check(q *igq.Graph, got []int32, limit int32) bool {
	o.mu.Lock()
	want, ok := o.memo[graphKey(q)]
	o.mu.Unlock()
	if !ok {
		return false
	}
	return slices.Equal(baseIDs(got, limit), want)
}

// baseIDs returns the sorted ids below limit.
func baseIDs(ids []int32, limit int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if id < limit {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// bruteCheck re-derives the oracle's answers for a few distinct queries by
// testing every dataset graph directly, so a wrong filter in the method
// cannot pass as a right answer. super selects supergraph semantics.
func (o *oracle) bruteCheck(db []*igq.Graph, qs []*igq.Graph, n int, super bool) error {
	seen := map[string]bool{}
	for _, q := range qs {
		k := graphKey(q)
		if seen[k] {
			continue
		}
		seen[k] = true
		if len(seen) > n {
			break
		}
		var want []int32
		for i, g := range db {
			var ok bool
			if super {
				ok = igq.IsSubgraph(g, q)
			} else {
				ok = igq.IsSubgraph(q, g)
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		o.mu.Lock()
		got, have := o.memo[k]
		o.mu.Unlock()
		if !have || !slices.Equal(got, want) {
			return fmt.Errorf("oracle disagrees with brute force on a query of %d edges", q.NumEdges())
		}
	}
	return nil
}
