package qserve

import (
	"sync"

	"snapdyn/internal/dynconn"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
)

// Live is the between-refresh connectivity index: a dynamic spanning
// forest (internal/dynconn) the ingest path updates synchronously, so
// st-connectivity can be answered from the update stream without
// waiting for the next snapshot publication.
//
// Consistency model: a live answer reflects every batch whose Ingest
// call returned before the query started — fresher than any snapshot —
// and at quiesce (no ingest in flight) it agrees exactly with the
// components of the next published snapshot, because both sides have
// applied the same multiset of updates. Every directed update is
// applied as an undirected forest edge: a mirrored batch (undirected
// serving) inserts both copies as parallel edges and deletes remove
// both, leaving connectivity identical to the snapshot store's;
// directed inputs get undirected (weak-ish) connectivity, the only kind
// a spanning forest can maintain.
//
// Live answers are never cached: the index mutates continuously and is
// pinned to no snapshot.
type Live struct {
	mu  sync.RWMutex
	idx *dynconn.Index
}

// newLive returns an empty live index over n vertices. Seed it from the
// current snapshot (SeedView) before serving.
func newLive(n int) *Live {
	return &Live{idx: dynconn.New(n, nil)}
}

// Apply feeds one ingested batch into the forest, in order. Called by
// the executor's Ingest after the snapshot-path apply succeeds; safe
// for concurrent use.
func (l *Live) Apply(batch []edge.Update) {
	l.mu.Lock()
	for _, up := range batch {
		if up.Op == edge.Delete {
			l.idx.DeleteEdge(up.U, up.V)
		} else {
			l.idx.InsertEdge(up.U, up.V, up.T)
		}
	}
	l.mu.Unlock()
}

// Connected answers st-connectivity from the forest: two root walks.
func (l *Live) Connected(u, v uint32) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Connected(u, v)
}

// Components counts the forest's components (isolated vertices
// included) — the oracle hook the consistency tests compare against
// the snapshot path's component count.
func (l *Live) Components() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.ComponentCount()
}

// SeedView replays every arc of a published snapshot into the forest —
// the bootstrap that makes a live index agree with history it never saw
// (including a durable store's recovered state). Arcs are translated
// back to original ids for reordered layouts; each stored arc becomes
// one undirected edge, exactly what Apply does per update, so seed +
// subsequent batches stays consistent with the snapshot store.
func (l *Live) SeedView(v *snapmgr.View) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v.C != nil {
		n := v.C.N
		for u := 0; u < n; u++ {
			v.C.Neighbors(edge.ID(u), func(w edge.ID, t uint32) bool {
				l.idx.InsertEdge(uint32(u), w, t)
				return true
			})
		}
		return
	}
	g := v.G
	for pu := 0; pu < g.N; pu++ {
		u := uint32(pu)
		if v.Inv != nil {
			u = v.Inv[pu]
		}
		adj, ts := g.Neighbors(edge.ID(pu))
		for i, pw := range adj {
			w := pw
			if v.Inv != nil {
				w = v.Inv[pw]
			}
			l.idx.InsertEdge(u, w, ts[i])
		}
	}
}

// EnableLive builds the live connectivity index, seeded from the
// current snapshot, and starts feeding it from every subsequent Ingest.
// Call before serving (not synchronized with in-flight Ingest calls).
// Live queries (Connected with live=1) fail with ErrUnsupported until
// this is called.
func (e *Executor) EnableLive() {
	l := newLive(e.NumVertices())
	l.SeedView(e.mgr.View())
	e.live = l
}

// Live returns the live connectivity index, nil until EnableLive.
func (e *Executor) Live() *Live { return e.live }
