package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 100, 1001} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForBlockPartition(t *testing.T) {
	if err := quick.Check(func(w uint8, n uint16) bool {
		workers := int(w%16) + 1
		total := int64(0)
		var sum atomic.Int64
		ForBlock(workers, int(n), func(lo, hi int) {
			if lo > hi {
				t.Errorf("lo %d > hi %d", lo, hi)
			}
			sum.Add(int64(hi - lo))
		})
		total = sum.Load()
		return total == int64(n)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForDynamicCoversRange(t *testing.T) {
	for _, chunk := range []int{1, 3, 64, 1000} {
		n := 777
		hits := make([]int32, n)
		ForDynamic(4, n, chunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("chunk=%d: index %d visited %d times", chunk, i, h)
			}
		}
	}
}

func TestForDynamicWorkerIDs(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 1000
		hits := make([]int32, n)
		busy := make([]atomic.Int32, workers)
		ForDynamicWorker(workers, n, 7, func(id, lo, hi int) {
			if id < 0 || id >= workers {
				t.Errorf("worker id %d outside [0, %d)", id, workers)
				return
			}
			if busy[id].Add(1) != 1 {
				t.Errorf("worker id %d shared by concurrent chunks", id)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			busy[id].Add(-1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForDynamicZeroAndNegative(t *testing.T) {
	called := false
	ForDynamic(4, 0, 16, func(lo, hi int) { called = true })
	ForDynamic(4, -5, 16, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestWorkersIDs(t *testing.T) {
	const w = 9
	seen := make([]int32, w)
	Workers(w, func(id int) { atomic.AddInt32(&seen[id], 1) })
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("worker id %d ran %d times", id, c)
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		n := 10000
		got := Reduce(workers, n, 0,
			func(acc, i int) int { return acc + i },
			func(a, b int) int { return a + b })
		want := n * (n - 1) / 2
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(4, 0, 42, func(acc, i int) int { return 0 }, func(a, b int) int { return 0 })
	if got != 42 {
		t.Fatalf("empty reduce = %d, want zero value 42", got)
	}
}

func TestBlockIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{1, 2, 10, 97} {
			if workers > n {
				continue
			}
			// Recompute the block boundaries and verify BlockIndex agrees.
			q, r := n/workers, n%workers
			lo := 0
			for w := 0; w < workers; w++ {
				hi := lo + q
				if w < r {
					hi++
				}
				for i := lo; i < hi; i++ {
					if got := BlockIndex(workers, n, i); got != w {
						t.Fatalf("BlockIndex(%d,%d,%d) = %d, want %d", workers, n, i, got, w)
					}
				}
				lo = hi
			}
		}
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Fatal("MaxWorkers < 1")
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForBlock(0, 1024, func(lo, hi int) {})
	}
}
