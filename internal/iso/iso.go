// Package iso implements exact subgraph isomorphism (monomorphism) testing
// for labeled undirected graphs — the verification-stage workhorse of every
// filter-then-verify graph query method in the paper.
//
// Semantics follow Definition 2 of the paper: pattern P is subgraph-
// isomorphic to target T (P ⊆ T) iff there is an injection φ: V(P) → V(T)
// with l(u) = l(φ(u)) for every vertex and (φ(u), φ(v)) ∈ E(T) for every
// (u, v) ∈ E(P). The embedding is NOT required to be induced: T may have
// extra edges among the image vertices. This is the semantics used by
// GraphGrepSX, Grapes and CT-Index, whose verification stages the paper
// builds on.
//
// Three engines are provided, mirroring the verification landscape of the
// paper's baselines:
//
//   - VF2 (Cordella et al. [9]): incremental core expansion with
//     terminal-set ("frontier") look-ahead pruning, relaxed soundly for
//     monomorphism. Used by GGSX and (modified) by CT-Index; the default.
//   - RI (Bonnici et al.): static GreatestConstraintFirst variable ordering
//     with parent-directed candidate generation and lightweight live
//     checks — the matcher inside Grapes.
//   - Ullmann [39]: the classic matrix-refinement algorithm, kept as the
//     historical baseline and for ablation benchmarks.
//
// All searches stop at the first embedding unless asked to enumerate, which
// matches the paper's alteration of Grapes ("stop query processing when the
// first match was found").
//
// Grapes verifies a connected query inside each connected component of a
// candidate's located vertices. Matcher.ExistsWithin runs that RI search in
// place on the stored adjacency, restricted to the component by a tag
// array, instead of on a copied induced subgraph. Because the component is
// ascending and adjacency lists are sorted, the restricted search explores
// exactly the search tree that RI explores on the materialised induced
// subgraph: same candidates in the same order, same pruning, same answer
// and the same Stats.
package iso

import (
	"repro/internal/graph"
)

// Algorithm selects the subgraph isomorphism engine.
type Algorithm int

const (
	// VF2 is the default terminal-set engine (the paper's most-used choice).
	VF2 Algorithm = iota
	// RI is the static-ordering engine used by Grapes.
	RI
	// Ullmann is the classic matrix-refinement algorithm.
	Ullmann
)

// String returns the engine name.
func (a Algorithm) String() string {
	switch a {
	case VF2:
		return "VF2"
	case RI:
		return "RI"
	case Ullmann:
		return "Ullmann"
	default:
		return "unknown"
	}
}

// Stats accumulates search-effort counters for a single test. The recursion
// count is the number of (pattern-vertex, target-vertex) assignments tried;
// it is the hardware-independent proxy for verification effort used in
// ablation experiments.
type Stats struct {
	Assignments int64 // candidate pair assignments attempted
	Backtracks  int64 // assignments undone
}

// Subgraph reports whether pattern ⊆ target using the VF2 engine.
func Subgraph(pattern, target *graph.Graph) bool {
	return SubgraphAlg(pattern, target, VF2)
}

// SubgraphAlg reports whether pattern ⊆ target using the chosen engine.
func SubgraphAlg(pattern, target *graph.Graph, alg Algorithm) bool {
	switch alg {
	case Ullmann:
		return ullmannExists(pattern, target, nil)
	case RI:
		return riExists(pattern, target, nil)
	default:
		return vf2Exists(pattern, target, nil)
	}
}

// SubgraphStats is Subgraph with effort counters.
func SubgraphStats(pattern, target *graph.Graph, alg Algorithm) (bool, Stats) {
	var st Stats
	var ok bool
	switch alg {
	case Ullmann:
		ok = ullmannExists(pattern, target, &st)
	case RI:
		ok = riExists(pattern, target, &st)
	default:
		ok = vf2Exists(pattern, target, &st)
	}
	return ok, st
}

// FindEmbedding returns one embedding of pattern into target as a slice
// mapping pattern vertex → target vertex, or nil if none exists.
func FindEmbedding(pattern, target *graph.Graph) []int {
	var out []int
	enumerate(pattern, target, 1, func(m []int32) bool {
		out = make([]int, len(m))
		for i, v := range m {
			out[i] = int(v)
		}
		return false
	})
	return out
}

// CountEmbeddings counts distinct embeddings (vertex mappings) of pattern
// into target, up to limit (limit <= 0 means unlimited). Automorphic images
// count separately, as each is a distinct injection.
func CountEmbeddings(pattern, target *graph.Graph, limit int) int {
	n := 0
	enumerate(pattern, target, limit, func([]int32) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// EnumerateEmbeddings calls fn for each embedding until fn returns false or
// the search space is exhausted. The mapping slice is reused between calls;
// callers must copy it if they retain it.
func EnumerateEmbeddings(pattern, target *graph.Graph, fn func(mapping []int32) bool) {
	enumerate(pattern, target, 0, fn)
}

// Isomorphic reports whether a and b are isomorphic labeled graphs.
//
// With equal vertex counts an injection is a bijection, and with equal edge
// counts an edge-preserving bijection is edge-bijective, so monomorphism in
// one direction plus equal counts decides isomorphism. This is exactly the
// paper's §4.3 identical-query detection rule (g ⊆ G with equal node and
// edge counts).
func Isomorphic(a, b *graph.Graph) bool {
	if !graph.SameSignature(a, b) {
		return false
	}
	return vf2Exists(a, b, nil)
}
