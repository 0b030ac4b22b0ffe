package wcsr

import (
	"math"
	"sort"
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

// refSort sorts the parallel (adj, w) span by (w, adj) with sort.Slice —
// the reference the radix span sort must reproduce exactly.
func refSort(adj, w []uint32) {
	type arc struct{ w, adj uint32 }
	arcs := make([]arc, len(adj))
	for i := range adj {
		arcs[i] = arc{w[i], adj[i]}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].w != arcs[j].w {
			return arcs[i].w < arcs[j].w
		}
		return arcs[i].adj < arcs[j].adj
	})
	for i, a := range arcs {
		adj[i], w[i] = a.adj, a.w
	}
}

// TestSortSpanMatchesReference drives sortSpan directly over random
// spans: lengths around the insertion-sort cutoff and well past it,
// neighbor ids shuffled (with duplicates), ascending, descending, or
// ascending but for one swapped pair, and weights that tie heavily, span
// one byte, span several bytes, differ only in each byte's top bit, or
// reach MaxUint32. One radixBuf serves every call, as one worker's does.
func TestSortSpanMatchesReference(t *testing.T) {
	r := xrand.New(41)
	weightKinds := map[string]func() uint32{
		"ties":     func() uint32 { return r.Uint32n(3) },
		"byte":     func() uint32 { return r.Uint32n(256) },
		"3-byte":   func() uint32 { return r.Uint32n(1 << 20) },
		"full":     func() uint32 { return r.Uint32() },
		"top":      func() uint32 { return math.MaxUint32 - r.Uint32n(2) },
		"constant": func() uint32 { return 7 },
		"bit 7s":   func() uint32 { return r.Uint32() & 0x80808080 },
	}
	var rb radixBuf
	for _, n := range []int{0, 1, 2, sortSpanCutoff - 1, sortSpanCutoff, sortSpanCutoff + 1,
		sortSpanCutoff + 2, 2 * sortSpanCutoff, 257, 1000} {
		for _, order := range []string{"shuffled", "ascending", "descending", "one swap"} {
			for name, weight := range weightKinds {
				adj := make([]uint32, n)
				w := make([]uint32, n)
				for i := range adj {
					adj[i] = r.Uint32n(uint32(max(1, n/2))) // duplicates likely
					if i%5 == 0 {
						adj[i] = r.Uint32() // and some multi-byte ids
					}
					w[i] = weight()
				}
				switch order {
				case "ascending":
					sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
				case "descending":
					sort.Slice(adj, func(i, j int) bool { return adj[i] > adj[j] })
				case "one swap":
					for i := range adj {
						adj[i] = uint32(1000 + i)
					}
					if n > 1 {
						j := r.Intn(n - 1)
						adj[j], adj[j+1] = adj[j+1], adj[j]
					}
				}
				wantA := append([]uint32(nil), adj...)
				wantW := append([]uint32(nil), w...)
				refSort(wantA, wantW)
				rb.sortSpan(adj, w)
				for i := range adj {
					if adj[i] != wantA[i] || w[i] != wantW[i] {
						t.Fatalf("n=%d %s/%s: arc %d = (w %d, adj %d), want (w %d, adj %d)",
							n, order, name, i, w[i], adj[i], wantW[i], wantA[i])
					}
				}
			}
		}
	}
}

// TestBuildMatchesReferenceAcrossStores builds views over snapshots of
// the dynarr, treap and hybrid stores — whose adjacencies arrive in
// insertion order, neighbor order, and either — with per-vertex degrees
// around the insertion-sort cutoff, parallel arcs, and labels up to
// MaxUint32, and demands every span equal the reference sort of the
// source span, at one and several workers.
func TestBuildMatchesReferenceAcrossStores(t *testing.T) {
	const n = 256
	degrees := []int{0, 1, 5, sortSpanCutoff - 1, sortSpanCutoff, sortSpanCutoff + 1, 48, 200}
	r := xrand.New(43)
	var edges []edge.Edge
	for u := 0; u < n; u++ {
		for k := degrees[u%len(degrees)]; k > 0; k-- {
			e := edge.Edge{U: edge.ID(u), V: edge.ID(r.Uint32n(n)), T: r.Uint32()}
			switch k % 7 {
			case 0:
				e.T = math.MaxUint32
			case 1:
				e.T = r.Uint32n(4) // ties on weight, ordered by neighbor
			}
			edges = append(edges, e)
			if k%11 == 0 {
				edges = append(edges, e) // an exact parallel arc
			}
		}
	}
	stores := map[string]func() dyngraph.Store{
		"dynarr": func() dyngraph.Store { return dyngraph.NewDynArr(n, len(edges)) },
		"treap":  func() dyngraph.Store { return dyngraph.NewTreapStore(n, 5) },
		"hybrid": func() dyngraph.Store { return dyngraph.NewHybrid(n, len(edges), 0, 5) },
	}
	weights := map[string]WeightFunc{
		"label":  func(ts uint32) int64 { return int64(ts) },
		"mod 97": func(ts uint32) int64 { return int64(ts % 97) },
	}
	for sname, mk := range stores {
		s := mk()
		for _, e := range edges {
			s.Insert(e.U, e.V, e.T)
		}
		g := csr.FromStore(1, s)
		for wname, wf := range weights {
			for _, workers := range []int{1, 3} {
				wg := Build(workers, g, wf, 0)
				for u := 0; u < g.N; u++ {
					lo, hi := g.Offsets[u], g.Offsets[u+1]
					wantA := append([]uint32(nil), g.Adj[lo:hi]...)
					wantW := make([]uint32, hi-lo)
					for i, ts := range g.TS[lo:hi] {
						wantW[i] = uint32(wf(ts))
					}
					refSort(wantA, wantW)
					for i := range wantA {
						p := lo + int64(i)
						if wg.Adj[p] != wantA[i] || wg.W[p] != wantW[i] {
							t.Fatalf("%s/%s workers=%d vertex %d arc %d: (w %d, adj %d), want (w %d, adj %d)",
								sname, wname, workers, u, i, wg.W[p], wg.Adj[p], wantW[i], wantA[i])
						}
					}
				}
				checkView(t, g, wg, wf)
			}
		}
	}
}
