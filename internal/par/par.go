// Package par provides the parallel-for primitives that every kernel in
// snapdyn is built on. They mirror the OpenMP "parallel for" structure the
// paper's C implementation uses: a bounded set of workers, static or
// chunked dynamic scheduling over an index range, and a barrier at the
// end.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers returns the default worker count: GOMAXPROCS.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// clampWorkers normalizes a requested worker count for a range of n items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs body(i) for every i in [0, n) using static block scheduling
// across the given number of workers (<=0 means GOMAXPROCS). Each worker
// receives one contiguous block, matching OpenMP schedule(static).
func For(workers, n int, body func(i int)) {
	ForBlock(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlock partitions [0, n) into one contiguous block per worker and
// invokes body(lo, hi) for each block in its own goroutine. Blocks differ
// in size by at most one element.
func ForBlock(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	q, r := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForDynamic runs body(lo, hi) over [0, n) in chunks of the given size,
// handed to workers from a shared atomic counter (OpenMP
// schedule(dynamic, chunk)). Use for loops with irregular per-iteration
// cost, e.g. frontier expansion over power-law degree vertices.
func ForDynamic(workers, n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	workers = clampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		body(0, n)
		return
	}
	// The fan-out lives in its own function so its escaping
	// synchronization state is not heap-allocated on the serial path
	// (escape analysis is not flow-sensitive): a workers==1 call must
	// stay allocation-free for steady-state traversal loops.
	forDynamic(workers, n, chunk, body)
}

func forDynamic(workers, n, chunk int, body func(lo, hi int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForDynamicWorker is ForDynamic for bodies that need per-worker
// scratch: each chunk also receives the id, in [0, workers), of the
// worker running it, and no two concurrent chunks share an id (workers
// <= 0 means GOMAXPROCS, so ids stay below MaxWorkers()).
func ForDynamicWorker(workers, n, chunk int, body func(id, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	workers = clampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	forDynamicWorker(workers, n, chunk, body)
}

// forDynamicWorker is ForDynamicWorker's fan-out, kept out of line for
// the same escape-analysis reason as forDynamic.
func forDynamicWorker(workers, n, chunk int, body func(id, lo, hi int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(id, lo, min(lo+chunk, n))
			}
		}(w)
	}
	wg.Wait()
}

// Workers launches exactly `workers` goroutines, passing each its id in
// [0, workers), and waits for all of them. It is the SPMD region
// primitive: the body typically cooperates through shared arrays indexed
// by worker id.
func Workers(workers int, body func(id int)) {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if workers == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			body(id)
		}(w)
	}
	wg.Wait()
}

// Reduce computes a parallel reduction over [0, n): each worker folds its
// block with fold starting from zero, and the per-worker partials are
// combined left-to-right with combine. combine must be associative.
func Reduce[T any](workers, n int, zero T, fold func(acc T, i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return zero
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		acc := zero
		for i := 0; i < n; i++ {
			acc = fold(acc, i)
		}
		return combine(zero, acc)
	}
	partial := make([]T, workers)
	ForBlock(workers, n, func(lo, hi int) {
		// Recover the worker index from the block: blocks are assigned in
		// order, sized q or q+1.
		w := BlockIndex(workers, n, lo)
		acc := zero
		for i := lo; i < hi; i++ {
			acc = fold(acc, i)
		}
		partial[w] = acc
	})
	acc := zero
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc
}

// BlockIndex returns the worker index owning offset lo under ForBlock's
// partitioning of n items among workers — the inversion kernels use to
// map a block start to a per-worker buffer. It is only meaningful when
// ForBlock did not clamp the worker count (n >= workers); callers with
// possibly-smaller ranges must fall back to a serial path. Any change
// to ForBlock's split must be mirrored here.
func BlockIndex(workers, n, lo int) int {
	q, r := n/workers, n%workers
	big := r * (q + 1) // total items in the first r (larger) blocks
	if lo < big {
		return lo / (q + 1)
	}
	if q == 0 {
		return workers - 1
	}
	return r + (lo-big)/q
}
