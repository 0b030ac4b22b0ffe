// Package wcsr provides a weight-materialized view of a CSR snapshot for
// the delta-stepping SSSP kernel: every arc's weight is computed once
// from its time label at build time (instead of a WeightFunc call per arc
// per relaxation phase), validated once up front, and each vertex's
// adjacency is split into a light prefix (weight <= delta) and a heavy
// suffix, so the light fixpoint and the heavy pass each scan only their
// own arcs. The split halves the inner-loop arc traffic and removes the
// closure call and the negative-weight branch from the hot loop.
package wcsr

import (
	"fmt"
	"math"
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// WeightFunc maps an arc's stored time label to its weight. Results must
// be non-negative and fit in uint32 (label-derived weights always do);
// Build validates every arc once and panics otherwise, so the relaxation
// phases can trust the materialized array unconditionally.
type WeightFunc func(ts uint32) int64

// Graph is a weight-materialized, light/heavy-partitioned CSR view.
// Vertex u's arcs occupy [Offsets[u], Offsets[u+1]) of Adj and W as in
// csr.Graph, reordered so the span is sorted by weight ascending. The
// light/heavy split then falls out for free: arcs with W <= Delta form
// the prefix [Offsets[u], LightEnd[u]) and heavy arcs the suffix
// [LightEnd[u], Offsets[u+1]), and changing Delta is a binary-search
// re-split per vertex (Retarget), not a rebuild.
type Graph struct {
	N        int
	Offsets  []int64  // length N+1, shared with the source CSR (immutable)
	LightEnd []int64  // length N: first heavy arc position per vertex
	Adj      []uint32 // reordered adjacency
	W        []uint32 // weights, parallel to Adj
	Delta    int64    // partition width (>= 1)
	MaxW     uint32   // largest arc weight

	radix []radixBuf // per-worker span-sort buffers, reused by Rebuild
}

// NumEdges returns the number of stored arcs.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) }

// Build materializes weights for g under wf and partitions each
// adjacency at delta. delta <= 0 picks HeuristicDelta over the
// materialized weights. Panics if wf produces a weight outside
// [0, MaxUint32].
func Build(workers int, g *csr.Graph, wf WeightFunc, delta int64) *Graph {
	wg := &Graph{}
	wg.Rebuild(workers, g, wf, delta)
	return wg
}

// Rebuild is Build into an existing view, reusing its arrays when large
// enough — the scratch-reuse path for repeated SSSP over one snapshot.
func (wg *Graph) Rebuild(workers int, g *csr.Graph, wf WeightFunc, delta int64) {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	m := len(g.Adj)
	wg.N = g.N
	wg.Offsets = g.Offsets
	if cap(wg.LightEnd) < g.N {
		wg.LightEnd = make([]int64, g.N)
	} else {
		wg.LightEnd = wg.LightEnd[:g.N]
	}
	if cap(wg.Adj) < m {
		wg.Adj = make([]uint32, m)
		wg.W = make([]uint32, m)
	} else {
		wg.Adj = wg.Adj[:m]
		wg.W = wg.W[:m]
	}

	// Pass 1: materialize and validate every weight once, in source arc
	// order, tracking the maximum. An out-of-range weight is recorded
	// atomically and reported by a panic after the barrier, on the
	// caller's goroutine — a panic inside a par.ForBlock worker would
	// crash the process with no chance to recover.
	var maxW atomic.Uint32
	badArc := atomic.Int64{}
	badArc.Store(-1)
	par.ForBlock(workers, m, func(lo, hi int) {
		var localMax uint32
		for i := lo; i < hi; i++ {
			w := wf(g.TS[i])
			if w < 0 || w > math.MaxUint32 {
				badArc.CompareAndSwap(-1, int64(i))
				return
			}
			wg.Adj[i] = g.Adj[i]
			wg.W[i] = uint32(w)
			if uint32(w) > localMax {
				localMax = uint32(w)
			}
		}
		for {
			cur := maxW.Load()
			if localMax <= cur || maxW.CompareAndSwap(cur, localMax) {
				break
			}
		}
	})
	if i := badArc.Load(); i >= 0 {
		panic(fmt.Sprintf("wcsr: weight %d for label %d outside [0, MaxUint32]", wf(g.TS[i]), g.TS[i]))
	}
	wg.MaxW = maxW.Load()

	// The heuristic samples the arc-order weights, so it must run
	// before pass 2 reorders them — keeping delta values identical to
	// the historical two-pointer build.
	if delta <= 0 {
		delta = HeuristicDelta(wg.W)
	}

	// Pass 2: sort each vertex's (Adj, W) span by (weight, neighbor)
	// ascending, then place the light/heavy split by binary search. The
	// sort is linear per span (radix over the digits that vary), paid
	// once per snapshot; every later delta change is a Retarget (binary
	// search only).
	if len(wg.radix) < workers {
		wg.radix = append(wg.radix, make([]radixBuf, workers-len(wg.radix))...)
	}
	par.ForDynamicWorker(workers, g.N, 256, func(id, vlo, vhi int) {
		rb := &wg.radix[id]
		for u := vlo; u < vhi; u++ {
			rb.sortSpan(wg.Adj[wg.Offsets[u]:wg.Offsets[u+1]], wg.W[wg.Offsets[u]:wg.Offsets[u+1]])
		}
	})
	wg.retarget(workers, delta)
}

// Retarget moves the light/heavy split of every adjacency to a new
// delta without touching weights or arc order: each span is already
// weight-sorted, so the new LightEnd is one binary search per vertex.
// delta <= 0 re-derives HeuristicDelta over the (now sorted) weights.
// O(n log maxDegree); the scratch-reuse path for SSSP runs that change
// delta over one snapshot.
func (wg *Graph) Retarget(workers int, delta int64) {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	if delta <= 0 {
		delta = HeuristicDelta(wg.W)
	}
	wg.retarget(workers, delta)
}

func (wg *Graph) retarget(workers int, delta int64) {
	wg.Delta = delta
	if workers == 1 {
		wg.splitRange(0, wg.N) // no closure: a serial Retarget allocates nothing
		return
	}
	par.ForDynamic(workers, wg.N, 1024, wg.splitRange)
}

// splitRange places LightEnd at Delta for the vertices [vlo, vhi).
func (wg *Graph) splitRange(vlo, vhi int) {
	for u := vlo; u < vhi; u++ {
		wg.LightEnd[u] = searchHeavy(wg.W, wg.Offsets[u], wg.Offsets[u+1], wg.Delta)
	}
}

// searchHeavy returns the position of the first arc in the sorted span
// [lo, hi) with weight > delta.
func searchHeavy(w []uint32, lo, hi, delta int64) int64 {
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if int64(w[mid]) <= delta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortSpanCutoff is the span length up to which insertion sort beats
// the radix passes' fixed 256-bucket histogram cost.
const sortSpanCutoff = 32

// radixBuf is one worker's ping-pong buffer pair for sortSpan, kept on
// the Graph so a Rebuild reuses it.
type radixBuf struct{ adj, w []uint32 }

// sortSpan sorts the parallel (adj, w) span by weight ascending,
// breaking ties by neighbor id so the layout is a pure function of the
// arc multiset — deterministic across rebuilds regardless of source arc
// order. Long spans take a stable LSD radix sort over the key's bytes,
// neighbor bytes first, then weight bytes, skipping every byte on which
// all keys of the span agree, and skipping the neighbor bytes entirely
// when the span already arrives in neighbor order (treap-backed
// adjacencies enumerate that way).
func (rb *radixBuf) sortSpan(adj, w []uint32) {
	n := len(adj)
	if n <= sortSpanCutoff {
		for i := 1; i < n; i++ {
			ca, cw := adj[i], w[i]
			j := i - 1
			for j >= 0 && (w[j] > cw || (w[j] == cw && adj[j] > ca)) {
				adj[j+1], w[j+1] = adj[j], w[j]
				j--
			}
			adj[j+1], w[j+1] = ca, cw
		}
		return
	}
	orA, andA, orW, andW := adj[0], adj[0], w[0], w[0]
	adjSorted := true
	for i := 1; i < n; i++ {
		orA |= adj[i]
		andA &= adj[i]
		orW |= w[i]
		andW &= w[i]
		adjSorted = adjSorted && adj[i-1] <= adj[i]
	}
	diffA, diffW := orA^andA, orW^andW
	if adjSorted {
		diffA = 0
	}
	if diffA == 0 && diffW == 0 {
		return
	}
	if cap(rb.adj) < n {
		rb.adj = make([]uint32, n)
		rb.w = make([]uint32, n)
	}
	srcA, srcW := adj, w
	dstA, dstW := rb.adj[:n], rb.w[:n]
	for pass := 0; pass < 8; pass++ {
		key, diff, shift := srcA, diffA, uint(8*pass)
		if pass >= 4 {
			key, diff, shift = srcW, diffW, uint(8*(pass-4))
		}
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for _, k := range key {
			count[(k>>shift)&0xff]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i, k := range key {
			d := (k >> shift) & 0xff
			dstA[count[d]], dstW[count[d]] = srcA[i], srcW[i]
			count[d]++
		}
		srcA, srcW, dstA, dstW = dstA, dstW, srcA, srcW
	}
	if &srcA[0] != &adj[0] {
		copy(adj, srcA)
		copy(w, srcW)
	}
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u edge.ID) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// heuristicSample bounds the number of arcs HeuristicDelta inspects.
const heuristicSample = 1 << 16

// HeuristicDelta returns the average arc weight (at least 1), the
// standard delta-stepping starting point. Large arc sets are sampled
// deterministically: a fixed stride of max(1, len(w)/2^16) starting at
// index 0, so repeated runs over one snapshot pick the same delta. All
// index arithmetic is additive (no i*stride products), so it cannot
// overflow regardless of the arc count.
func HeuristicDelta(w []uint32) int64 {
	if len(w) == 0 {
		return 1
	}
	stride := len(w) / heuristicSample
	if stride < 1 {
		stride = 1
	}
	var sum, count int64
	for i := 0; i < len(w); i += stride {
		sum += int64(w[i])
		count++
	}
	d := sum / count
	if d < 1 {
		d = 1
	}
	return d
}
