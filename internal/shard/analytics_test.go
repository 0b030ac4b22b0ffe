package shard

import (
	"math"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// singleExecutor builds the single-snapshot reference executor over the
// same update stream a fleet under test ingests.
func singleExecutor(t *testing.T, n int, ups []edge.Update) *qserve.Executor {
	t.Helper()
	mgr := snapmgr.New(2, dyngraph.NewTracked(dyngraph.NewHybrid(n, len(ups), 0, 1)))
	single := qserve.New(mgr, qserve.Config{Undirected: true})
	if _, err := single.Ingest(2, ups); err != nil {
		t.Fatal(err)
	}
	mgr.Refresh(2)
	return single
}

// TestFleetAnalyticsParity extends the single-vs-fleet equivalence
// guarantee to the analytics kinds, across every shard count:
// clustering and k-hop must answer bit-identically (integer counts; the
// float mean is summed in original-id order on both engines), and
// PageRank — the documented exception — within a
// tolerance-proportional band.
func TestFleetAnalyticsParity(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 21)
	ups = stream.Mirror(ups)
	single := singleExecutor(t, n, ups)

	const tol = 1e-9
	prBound := 10 * float64(n) * tol / (1 - qserve.PageRankDamping)
	wantCl, err := qserve.Clustering(single)
	if err != nil {
		t.Fatal(err)
	}
	wantPR, err := qserve.PageRank(single, tol)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range shardCounts {
		f := testFleet(n, p, ups)
		ex := NewExecutor(f, qserve.Config{Undirected: true})

		cl, err := qserve.Clustering(ex)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Triangles != wantCl.Triangles || cl.Counted != wantCl.Counted || cl.AvgLocal != wantCl.AvgLocal {
			t.Fatalf("shards=%d: Clustering = %+v, single %+v (bit-identical)", p, cl, wantCl)
		}

		for _, src := range []uint32{0, 7, uint32(n / 2), uint32(n - 1)} {
			for _, k := range []uint32{0, 1, 2, 5, 1 << 29} {
				want, err := qserve.KHop(single, src, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := qserve.KHop(ex, src, k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Reached != want.Reached {
					t.Fatalf("shards=%d: KHop(%d,%d) = %d, single %d", p, src, k, got.Reached, want.Reached)
				}
			}
		}

		pr, err := qserve.PageRank(ex, tol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pr.SumRank-wantPR.SumRank) > prBound || math.Abs(pr.MaxRank-wantPR.MaxRank) > prBound {
			t.Fatalf("shards=%d: PageRank = %+v, single %+v (band %v)", p, pr, wantPR, prBound)
		}
		if pr.Iterations <= 0 || pr.Tol != tol {
			t.Fatalf("shards=%d: PageRank metadata %+v implausible", p, pr)
		}
	}
}

// TestFleetAnalyticsCacheHitZeroAlloc extends the fleet's cache-hit
// allocation guard to the analytics kinds: once cached against the
// pinned view set, repeats answer without allocating.
func TestFleetAnalyticsCacheHitZeroAlloc(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 23)
	ups = stream.Mirror(ups)
	f := testFleet(n, 4, ups)
	ex := NewExecutor(f, qserve.Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 64 << 20})

	warm := func() {
		if _, err := qserve.Clustering(ex); err != nil {
			t.Fatal(err)
		}
		if _, err := qserve.KHop(ex, 1, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := qserve.PageRank(ex, 0); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	if c := ex.Cache().Counters(); c.Hits < 3 {
		t.Fatalf("warm-up did not hit the cache: %+v", c)
	}

	if a := testing.AllocsPerRun(30, func() {
		if _, err := qserve.Clustering(ex); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit clustering allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(30, func() {
		if _, err := qserve.KHop(ex, 1, 3); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit khop allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(30, func() {
		if _, err := qserve.PageRank(ex, 0); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit pagerank allocates %.1f objects/op, want 0", a)
	}
}
