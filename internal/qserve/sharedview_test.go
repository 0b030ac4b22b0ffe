package qserve

import (
	"sync"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
)

// reachedMax summarizes a distance array the way SSSPReply does.
func reachedMax(dist []int64) (reached int, maxDist int64) {
	for _, d := range dist {
		if d != sssp.Inf {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	return reached, maxDist
}

// TestSSSPSharedViewConcurrentFirstUse publishes a fresh snapshot and
// has several goroutines hit it with SSSP at once — through the
// executor with the default and non-default deltas, and straight over
// the snapshot's weighted view — so the view's lazy build races its
// first readers. Every reader must see the one shared build (same W
// backing array), no pooled slot may build a private view, and every
// answer must equal Dijkstra.
func TestSSSPSharedViewConcurrentFirstUse(t *testing.T) {
	mgr, edges := newManager(t, 10, 29)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 4, MaxQueue: 64})

	// Churn and republish, so the view under test is freshly published
	// and its weighted view unbuilt.
	var batch []edge.Update
	for i := 0; i < 64; i++ {
		e := edges[i*13%len(edges)]
		batch = append(batch,
			edge.Update{Edge: edge.Edge{U: e.U, V: e.V, T: e.T + 3}, Op: edge.Insert},
			edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T + 3}, Op: edge.Insert})
	}
	mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, batch) })
	mgr.Refresh(0)
	v := mgr.View()

	srcs := []uint32{0, 1, 5, 77, 300, 1023}
	want := make([][]int64, len(srcs))
	for i, src := range srcs {
		want[i] = sssp.Dijkstra(v.G, edge.ID(src), sssp.LabelWeights)
	}

	const goroutines = 8
	deltas := []int64{0, 7, 0, 13}
	start := make(chan struct{})
	views := make([]*[]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			delta := deltas[g%len(deltas)]
			sc := sssp.NewScratch()
			for i, src := range srcs {
				if g%2 == 0 {
					r, err := SSSP(ex, src, delta)
					if err != nil {
						t.Errorf("SSSP(%d, %d): %v", src, delta, err)
						return
					}
					reached, maxDist := reachedMax(want[i])
					if r.Reached != reached || r.MaxDist != maxDist {
						t.Errorf("SSSP(%d, %d) = reached %d max %d, want %d/%d",
							src, delta, r.Reached, r.MaxDist, reached, maxDist)
					}
					continue
				}
				wv := v.Weighted(1)
				views[g] = &wv.W
				dist := sssp.RunView(wv, edge.ID(src), sssp.Options{Workers: 2, Delta: delta, Scratch: sc})
				for u := range dist {
					if dist[u] != want[i][u] {
						t.Errorf("RunView(%d, delta %d): dist[%d] = %d, want %d",
							src, delta, u, dist[u], want[i][u])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	shared := v.Weighted(1)
	for g, w := range views {
		if w != nil && &(*w)[0] != &shared.W[0] {
			t.Fatalf("goroutine %d read a different weighted view", g)
		}
	}
	for len(ex.free) > 0 {
		if s := <-ex.free; s.ssp.Cached() != nil {
			t.Fatal("a pooled slot built a private weighted view")
		}
	}
}

// TestSSSPNonDefaultDeltaZeroAlloc extends the serving allocation guard
// to SSSP with a delta other than the view's heuristic one: the
// slot-local light/heavy split is re-placed over the shared spans in
// reused memory, so steady state — one delta or alternating ones —
// allocates nothing.
func TestSSSPNonDefaultDeltaZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 10, 31)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1})
	for i := 0; i < 2; i++ {
		if _, err := SSSP(ex, 1, 7); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := SSSP(ex, 1, 7); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state SSSP with delta 7 allocates %.1f objects/op, want 0", n)
	}
	delta := int64(7)
	if n := testing.AllocsPerRun(20, func() {
		delta = 20 - delta // alternate 7 and 13
		if _, err := SSSP(ex, 2, delta); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("SSSP alternating deltas allocates %.1f objects/op, want 0", n)
	}
}

// TestStatsMaxDegreeAcrossLayouts pins /stats' max degree — computed
// once per published View — to the plain CSR's scan in all five
// layouts, before and after a refresh that lowers it.
func TestStatsMaxDegreeAcrossLayouts(t *testing.T) {
	const scale, seed = 9, 17
	layouts := []snapmgr.Layout{
		snapmgr.LayoutPlain, snapmgr.LayoutDegree, snapmgr.LayoutBFS,
		snapmgr.LayoutRCM, snapmgr.LayoutCompressed,
	}
	mgrs := make([]*snapmgr.Manager, len(layouts))
	exs := make([]*Executor, len(layouts))
	for i, l := range layouts {
		mgrs[i] = newLayoutManager(t, scale, seed, l)
		exs[i] = New(mgrs[i], Config{Undirected: true})
	}
	var prev int64 = -1
	for round := 0; round < 2; round++ {
		g := mgrs[0].Current()
		want := g.MaxDegree()
		if want == prev {
			t.Fatalf("round %d: max degree stayed %d; the refresh must change it", round, want)
		}
		prev = want
		for i, ex := range exs {
			for k := 0; k < 2; k++ {
				if got := ex.Stats().MaxDegree; got != want {
					t.Fatalf("round %d %s: Stats().MaxDegree = %d, want %d", round, layouts[i], got, want)
				}
			}
			if got := mgrs[i].View().MaxDegree(); got != want {
				t.Fatalf("round %d %s: View.MaxDegree = %d, want %d", round, layouts[i], got, want)
			}
		}
		// Strip the hub's out-arcs, so the next view's maximum is lower.
		var hub uint32
		for u := 0; u < g.N; u++ {
			if g.Degree(edge.ID(u)) == want {
				hub = uint32(u)
				break
			}
		}
		var cut []edge.Update
		for _, nb := range g.Adj[g.Offsets[hub]:g.Offsets[hub+1]] {
			cut = append(cut, edge.Update{Edge: edge.Edge{U: hub, V: nb}, Op: edge.Delete})
		}
		for _, mgr := range mgrs {
			mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, cut) })
			mgr.Refresh(0)
		}
	}
}
