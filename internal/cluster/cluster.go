// Package cluster implements local clustering coefficients via parallel
// triangle counting — one of the standard small-world diagnostics in the
// SNAP framework this paper's code shipped in (the small-world
// phenomenon is defined by low diameter plus high clustering, the
// "presence of dense sub-graphs" the paper's introduction cites).
//
// The kernel deduplicates and sorts each adjacency once, then counts
// each triangle exactly once as an ordered triple u < v < w by merge
// intersection of neighbor tails, parallelized over vertices with
// dynamic scheduling (hub vertices dominate the work). Corner credits
// are accumulated with atomic adds.
//
// The arena (Scratch) is pooled: a serving layer keeps one per query
// slot and recounts each snapshot with zero steady-state allocations.
// It counts from a plain CSR or a gap-compressed snapshot — both
// produce identical per-vertex triangle counts on the same graph.
package cluster

import (
	"slices"
	"sync/atomic"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// Scratch is a reusable triangle-counting arena: the flattened sorted
// deduplicated adjacency plus per-vertex outputs, resized (never
// shrunk) to each input's shape.
type Scratch struct {
	offs []int64  // offs[u] is the start of u's slot; slot width = raw degree
	adj  []uint32 // sorted, deduplicated, loop-free; valid prefix deg[u] per slot
	deg  []int32  // simple (deduplicated, loop-free) degree
	tri  []int64  // triangles through each vertex
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// Triangles returns the per-vertex triangle counts of the last
// Compute* call (a view into the arena; valid until the next call).
func (s *Scratch) Triangles() []int64 { return s.tri }

// SimpleDegrees returns the per-vertex simple degrees (self loops and
// parallel edges removed) of the last Compute* call.
func (s *Scratch) SimpleDegrees() []int32 { return s.deg }

// Aggregate folds the last Compute* call's per-vertex triangle counts
// into the serving aggregates, visiting vertices as ids 0..n-1 mapped
// through toLayout (identity when storage is unpermuted): the global
// triangle count (each triangle once), the number of vertices with
// simple degree >= 2, and their mean local clustering coefficient. The
// fixed visit order makes the float mean bit-identical for every
// storage permutation of the same graph — the property the serving
// layer's cross-layout equivalence guarantee rests on.
func (s *Scratch) Aggregate(toLayout func(uint32) uint32, n int) (triangles, counted int64, avgLocal float64) {
	var sum float64
	for orig := 0; orig < n; orig++ {
		u := toLayout(uint32(orig))
		triangles += s.tri[u]
		if d := int64(s.deg[u]); d >= 2 {
			sum += 2 * float64(s.tri[u]) / float64(d*(d-1))
			counted++
		}
	}
	triangles /= 3
	if counted > 0 {
		avgLocal = sum / float64(counted)
	}
	return triangles, counted, avgLocal
}

// ComputeCSR counts triangles over a symmetric CSR snapshot (both arcs
// of every undirected edge present). Self loops and parallel edges are
// ignored. The workers == 1 path is closure-free: par closure literals
// escape into the fan-out goroutines regardless of the branch taken
// (escape analysis is not flow-sensitive), and the serving layer's
// steady-state query path must not allocate.
func (s *Scratch) ComputeCSR(workers int, g *csr.Graph) {
	n := g.N
	s.resize(n, int64(len(g.Adj)))
	copy(s.offs, g.Offsets)
	if workers == 1 {
		for u := 0; u < n; u++ {
			raw, _ := g.Neighbors(edge.ID(u))
			s.dedupInto(uint32(u), raw)
		}
		s.countSerial(n)
		return
	}
	s.dedupCSRParallel(workers, g)
	s.count(workers, n)
}

func (s *Scratch) dedupCSRParallel(workers int, g *csr.Graph) {
	par.ForDynamic(workers, g.N, 128, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			raw, _ := g.Neighbors(edge.ID(u))
			s.dedupInto(uint32(u), raw)
		}
	})
}

// ComputeStream counts triangles over a gap-compressed snapshot,
// decoding each adjacency once into the arena.
func (s *Scratch) ComputeStream(workers int, cg *compress.Graph) {
	n := cg.N
	s.resize(n, cg.NumEdges())
	var off int64
	for u := 0; u < n; u++ {
		s.offs[u] = off
		off += cg.Degree(edge.ID(u))
	}
	s.offs[n] = off
	if workers == 1 {
		s.dedupStreamRange(cg, 0, n)
		s.countSerial(n)
		return
	}
	s.dedupStreamParallel(workers, cg)
	s.count(workers, n)
}

func (s *Scratch) dedupStreamParallel(workers int, cg *compress.Graph) {
	par.ForDynamic(workers, cg.N, 128, func(lo, hi int) {
		s.dedupStreamRange(cg, lo, hi)
	})
}

// dedupStreamRange decodes and dedups the adjacencies of [lo, hi).
// Decoded arcs arrive in increasing neighbor order, so each slot is
// already sorted: write then dedup in place.
func (s *Scratch) dedupStreamRange(cg *compress.Graph, lo, hi int) {
	var cur compress.Cursor
	for u := lo; u < hi; u++ {
		p := s.offs[u]
		cg.Begin(&cur, edge.ID(u))
		for {
			v, _, ok := cur.Next()
			if !ok {
				break
			}
			s.adj[p] = uint32(v)
			p++
		}
		s.dedupSorted(uint32(u))
	}
}

// resize shapes the arena for n vertices and m raw arcs.
func (s *Scratch) resize(n int, m int64) {
	if cap(s.offs) < n+1 {
		s.offs = make([]int64, n+1)
	}
	s.offs = s.offs[:n+1]
	if int64(cap(s.adj)) < m {
		s.adj = make([]uint32, m)
	}
	s.adj = s.adj[:m]
	if cap(s.deg) < n {
		s.deg = make([]int32, n)
		s.tri = make([]int64, n)
	}
	s.deg = s.deg[:n]
	s.tri = s.tri[:n]
}

// dedupInto copies u's raw adjacency into its slot, sorts it, and
// deduplicates in place.
func (s *Scratch) dedupInto(u uint32, raw []uint32) {
	lo := s.offs[u]
	nb := s.adj[lo : lo+int64(len(raw))]
	copy(nb, raw)
	slices.Sort(nb)
	s.dedupSorted(u)
}

// dedupSorted compacts u's already-sorted slot, dropping self loops and
// duplicates, and records the simple degree.
func (s *Scratch) dedupSorted(u uint32) {
	lo, hi := s.offs[u], s.offs[u+1]
	nb := s.adj[lo:hi]
	w := 0
	for _, v := range nb {
		if v == u {
			continue
		}
		if w > 0 && nb[w-1] == v {
			continue
		}
		nb[w] = v
		w++
	}
	s.deg[u] = int32(w)
}

// searchAbove returns the index of the first element of a (sorted
// ascending) strictly greater than x — an inlined binary search, so the
// hot counting loop builds no closures.
func searchAbove(a []uint32, x uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countSerial is count without atomics or closures — the workers == 1
// path of every Compute* entry, kept allocation-free for the serving
// layer's pooled steady state.
func (s *Scratch) countSerial(n int) {
	for i := range s.tri {
		s.tri[i] = 0
	}
	for u := 0; u < n; u++ {
		nu := s.adj[s.offs[u] : s.offs[u]+int64(s.deg[u])]
		for _, v := range nu[searchAbove(nu, uint32(u)):] {
			nv := s.adj[s.offs[v] : s.offs[v]+int64(s.deg[v])]
			a := nu[searchAbove(nu, v):]
			b := nv[searchAbove(nv, v):]
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					w := a[x]
					s.tri[u]++
					s.tri[v]++
					s.tri[w]++
					x++
					y++
				}
			}
		}
	}
}

// count enumerates each triangle once as an ordered triple u < v < w by
// merge intersection of the sorted neighbor tails, crediting all three
// corners atomically.
func (s *Scratch) count(workers int, n int) {
	for i := range s.tri {
		s.tri[i] = 0
	}
	par.ForDynamic(workers, n, 64, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			nu := s.adj[s.offs[u] : s.offs[u]+int64(s.deg[u])]
			for _, v := range nu[searchAbove(nu, uint32(u)):] {
				nv := s.adj[s.offs[v] : s.offs[v]+int64(s.deg[v])]
				// Common neighbors w > v close triangles u < v < w.
				a := nu[searchAbove(nu, v):]
				b := nv[searchAbove(nv, v):]
				x, y := 0, 0
				for x < len(a) && y < len(b) {
					switch {
					case a[x] < b[y]:
						x++
					case a[x] > b[y]:
						y++
					default:
						w := a[x]
						atomic.AddInt64(&s.tri[u], 1)
						atomic.AddInt64(&s.tri[v], 1)
						atomic.AddInt64(&s.tri[w], 1)
						x++
						y++
					}
				}
			}
		}
	})
}

// Coefficients holds per-vertex triangle statistics.
type Coefficients struct {
	// Triangles[v] is the number of triangles through v.
	Triangles []int64
	// Local[v] is the local clustering coefficient:
	// 2*Triangles[v] / (deg[v]*(deg[v]-1)) over the simple (deduplicated,
	// loop-free) degree; 0 for degree < 2.
	Local []float64
	// TotalTriangles is the global triangle count (each counted once).
	TotalTriangles int64
	// GlobalAverage is the mean of Local over vertices with degree >= 2.
	GlobalAverage float64
}

// Compute counts triangles and clustering coefficients over a symmetric
// snapshot (both arcs of every undirected edge present). Self loops and
// parallel edges are ignored. It is the one-shot convenience over a
// fresh Scratch; pooled callers use Scratch directly.
func Compute(workers int, g *csr.Graph) *Coefficients {
	s := NewScratch()
	s.ComputeCSR(workers, g)
	n := g.N
	c := &Coefficients{
		Triangles: append([]int64(nil), s.tri...),
		Local:     make([]float64, n),
	}
	var total int64
	counted := 0
	var sum float64
	for v := 0; v < n; v++ {
		total += c.Triangles[v]
		d := int(s.deg[v])
		if d >= 2 {
			c.Local[v] = 2 * float64(c.Triangles[v]) / float64(d*(d-1))
			sum += c.Local[v]
			counted++
		}
	}
	c.TotalTriangles = total / 3
	if counted > 0 {
		c.GlobalAverage = sum / float64(counted)
	}
	return c
}
