// Package sssp implements single-source shortest paths for weighted
// graphs — the problem the paper flags as future work ("the problem of
// single-source shortest paths for arbitrarily weighted graphs is
// challenging to parallelize efficiently, and is even harder in a
// dynamic setting") — using the parallel delta-stepping algorithm of the
// authors' companion ALENEX'07 study (paper reference [19]), with a
// sequential Dijkstra baseline for validation.
//
// Weights are derived from the arc's uint32 payload via a WeightFunc, so
// time labels can double as weights or be mapped arbitrarily. The kernel
// runs over a weight-materialized view (internal/wcsr) that computes and
// validates every weight once and pre-partitions each adjacency into a
// light prefix and heavy suffix, so the relaxation phases scan only
// their own arcs with no per-arc closure call or weight branch. A
// Scratch carries every reusable buffer — the distance array, the
// cyclic bucket ring, the dedup bitmaps, and the per-worker relaxation
// outputs — so steady-state repeated SSSP over one snapshot allocates
// nothing. Run builds (and caches in the Scratch) the view itself;
// RunView reads a prebuilt one, so many concurrent runs can share a
// single view per snapshot.
package sssp

import (
	"math"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/wcsr"
)

// Inf marks unreachable vertices in distance arrays.
const Inf = int64(math.MaxInt64)

// WeightFunc maps an arc's stored label to a non-negative weight that
// fits in uint32 (label-derived weights always do). Violations are
// reported by a panic from the single up-front materialization pass,
// never from inside a parallel relaxation phase.
type WeightFunc = wcsr.WeightFunc

// UnitWeights ignores labels: every arc costs 1 (BFS distances).
func UnitWeights(uint32) int64 { return 1 }

// LabelWeights uses the stored label directly as the weight.
func LabelWeights(ts uint32) int64 { return int64(ts) }

// Options configures a delta-stepping run.
type Options struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Delta is the bucket width; <= 0 picks the heuristic (average arc
	// weight, deterministically sampled).
	Delta int64
	// Weights maps time labels to arc weights; nil means LabelWeights.
	Weights WeightFunc
	// Scratch, when non-nil, supplies every reusable buffer including
	// the cached weighted view of the graph, making repeated runs over
	// one snapshot allocation-free. The returned distance slice is owned
	// by the Scratch and overwritten by its next run.
	Scratch *Scratch
}

// RunView computes shortest path distances from src over a prebuilt
// weighted view, which it only reads — so one view, such as the
// per-snapshot view a published snapshot carries, can serve many
// concurrent runs, each with its own Scratch. opt.Weights is ignored:
// the view's weights are fixed. opt.Delta <= 0 (or equal to view.Delta)
// runs on the view's own light/heavy split; any other delta runs on a
// split private to the Scratch, placed per run by binary search over
// the view's weight-sorted spans (Retarget cost, never a rebuild, and
// allocation-free once warm at Workers == 1).
func RunView(view *wcsr.Graph, src edge.ID, opt Options) []int64 {
	sc := opt.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	if opt.Delta <= 0 || opt.Delta == view.Delta {
		return sc.run(opt.Workers, view, src)
	}
	dist := sc.run(opt.Workers, sc.resplit(opt.Workers, view, opt.Delta), src)
	// Drop the borrowed arcs so an idle Scratch never pins a retired
	// snapshot's view; only the LightEnd buffer is kept for reuse.
	sc.split = wcsr.Graph{LightEnd: sc.split.LightEnd[:0]}
	return dist
}

// Run computes shortest path distances from src under opt. Distances
// match Dijkstra exactly; unreachable vertices hold Inf.
func Run(g *csr.Graph, src edge.ID, opt Options) []int64 {
	sc := opt.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	wf := opt.Weights
	if wf == nil {
		wf = LabelWeights
	}
	workers := opt.Workers
	wg := sc.prepare(workers, g, wf, opt.Delta)
	return sc.run(workers, wg, src)
}

// DeltaStepping computes shortest path distances from src in parallel
// using bucketed relaxation: vertices are settled in distance bands of
// width delta; "light" arcs (weight <= delta) are relaxed iteratively
// within a band, "heavy" arcs once per settled vertex. delta <= 0 picks
// a heuristic (average weight). Distances match Dijkstra exactly. It is
// Run with a throwaway Scratch; use Run with a warm Scratch for repeated
// sources over one snapshot.
func DeltaStepping(workers int, g *csr.Graph, src edge.ID, w WeightFunc, delta int64) []int64 {
	return Run(g, src, Options{Workers: workers, Weights: w, Delta: delta})
}
