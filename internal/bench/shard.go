package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/centrality"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/qserve"
	"snapdyn/internal/shard"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/timing"
	"snapdyn/internal/traversal"
)

// FigShard measures the vertex-partitioned sharding layer against the
// single-store serving stack, sweeping the shard count:
//
//   - ingest-single / shard-ingest: bulk-load MUPS of the mirrored
//     seed stream through one store gate vs the fleet's P concurrent
//     shard gates (scatter by owner + parallel per-shard apply).
//   - bfs-single / shard-bfs: full-graph traversal rate in edges/s
//     (the MUPS column reads as MTEPS: every BFS is charged the full
//     arc count) for the single-snapshot engine at 1 kernel worker vs
//     the scatter-gather BFS over P pinned shard snapshots.
//   - shard-query / shard-sustained-ingest: sustained mixed load
//     through the fleet executor — qworkers concurrent BFS / SSSP /
//     st-connectivity readers with churn ingest routed through the
//     shard gates while every shard's auto-refresher republishes by
//     policy — reported as QPS with p50/p99 and concurrent ingest MUPS.
//
// Shard speedup is bounded by physical parallelism: with P shards on C
// cores, expect min(P, C)-ish scaling on ingest and near-flat QPS once
// P > C (scatter-gather adds one exchange barrier per BFS level).
func FigShard(cfg Config, shardCounts []int, qworkers int, perPoint time.Duration) *timing.Table {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if qworkers <= 0 {
		qworkers = 4
	}
	if perPoint <= 0 {
		perPoint = time.Second
	}
	n := cfg.n()
	edges := cfg.generate()
	ups := stream.Mirror(stream.Inserts(edges))
	extraCfg := cfg
	extraCfg.Seed += 77
	extra := extraCfg.generate()
	ws := cfg.workers()
	iw := ws[len(ws)-1]

	t := &timing.Table{
		Title: "Shard: vertex-partitioned ingest and scatter-gather query scaling",
		Note: cfg.instanceNote() + fmt.Sprintf(
			" (undirected), %d ingest workers, %d query workers, %s sustained per point", iw, qworkers, perPoint),
	}

	// Single-store baseline: one gate, one snapshot, the qserve engine.
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed))
	elapsed := timing.Time(func() { store.ApplyBatch(iw, ups) })
	t.Add(timing.Measurement{
		Label: "ingest-single", Param: "baseline",
		Workers: iw, Ops: int64(len(ups)), Seconds: elapsed,
	})
	mgr := snapmgr.New(iw, store)
	g := mgr.Current()
	sources := centrality.SampleSources(g, 64, cfg.Seed+43)
	m := g.NumEdges()
	elapsed = timing.Time(func() {
		for _, s := range sources {
			traversal.BFS(1, g, s)
		}
	})
	t.Add(timing.Measurement{
		Label: "bfs-single", Param: "baseline",
		Workers: 1, Ops: int64(len(sources)) * m, Seconds: elapsed,
	})

	for _, p := range shardCounts {
		fleet := shard.New(n, shard.Config{Shards: p, Workers: iw, ExpectedEdges: 2 * len(ups)})

		// Bulk-load MUPS through P concurrent shard gates.
		elapsed := timing.Time(func() { fleet.Ingest(iw, ups) })
		t.Add(timing.Measurement{
			Label: "shard-ingest", Param: fmt.Sprintf("shards=%d", p),
			Workers: iw, Ops: int64(len(ups)), Seconds: elapsed,
		})
		fleet.Refresh(iw)

		// Scatter-gather BFS rate over the pinned per-shard snapshots.
		sc := shard.NewScratch()
		views := fleet.View(nil)
		elapsed = timing.Time(func() {
			for _, s := range sources {
				sc.BFS(views, s)
			}
		})
		t.Add(timing.Measurement{
			Label: "shard-bfs", Param: fmt.Sprintf("shards=%d", p),
			Workers: p, Ops: int64(len(sources)) * fleet.NumEdges(), Seconds: elapsed,
		})

		// Sustained mixed load through the fleet executor while every
		// shard auto-refreshes by policy.
		fleet.Start(snapmgr.Policy{
			MaxDirty: max(1, n/100),
			MaxAge:   50 * time.Millisecond,
			Poll:     2 * time.Millisecond,
			Workers:  iw,
		})
		ex := shard.NewExecutor(fleet, qserve.Config{
			MaxConcurrent: qworkers,
			MaxQueue:      2 * qworkers,
			Undirected:    true,
		})
		churn := churnBatches(extra, max(1024, n/32))

		stopIngest := make(chan struct{})
		var applied atomic.Int64
		var iwg sync.WaitGroup
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopIngest:
					return
				default:
				}
				b := churn[i%len(churn)]
				fleet.Ingest(iw, b)
				applied.Add(int64(len(b)))
			}
		}()

		lats := make([][]time.Duration, qworkers)
		deadline := time.Now().Add(perPoint)
		var qwg sync.WaitGroup
		elapsed = timing.Time(func() {
			for q := 0; q < qworkers; q++ {
				qwg.Add(1)
				go func(q int) {
					defer qwg.Done()
					lat := make([]time.Duration, 0, 4096)
					src := uint32(q)
					for i := 0; time.Now().Before(deadline); i++ {
						s := sources[int(src)%len(sources)]
						start := time.Now()
						var err error
						switch i % 3 {
						case 0:
							_, err = qserve.BFS(ex, s)
						case 1:
							_, err = qserve.SSSP(ex, s, 0)
						default:
							_, err = qserve.Connected(ex, s, sources[(int(src)+7)%len(sources)])
						}
						if err != nil {
							panic(fmt.Sprintf("bench: shard query failed: %v", err))
						}
						lat = append(lat, time.Since(start))
						src = src*1664525 + 1013904223
					}
					lats[q] = lat
				}(q)
			}
			qwg.Wait()
		})
		close(stopIngest)
		iwg.Wait()
		fleet.Stop()

		all := flatten(lats)
		served := len(all)
		t.Add(timing.Measurement{
			Label: "shard-query",
			Param: fmt.Sprintf("shards=%d qps=%.0f p50=%s p99=%s", p, float64(served)/elapsed,
				fmtLatency(percentile(all, 0.50)), fmtLatency(percentile(all, 0.99))),
			Workers: qworkers, Ops: int64(served), Seconds: elapsed,
		})
		t.Add(timing.Measurement{
			Label: "shard-sustained-ingest", Param: fmt.Sprintf("shards=%d epoch=%d", p, fleet.Epoch()),
			Workers: iw, Ops: applied.Load(), Seconds: elapsed,
		})
	}
	return t
}
