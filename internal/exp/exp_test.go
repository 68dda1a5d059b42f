package exp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunOrder checks that results come back in index order for both the
// serial and parallel paths, whatever order the points complete in.
func TestRunOrder(t *testing.T) {
	const n = 100
	for _, par := range []int{1, 4, 0} {
		got := Run(par, n, func(_ *MachinePool, i int) int { return i * i })
		if len(got) != n {
			t.Fatalf("parallel=%d: %d results, want %d", par, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestRunEmpty checks the degenerate sizes.
func TestRunEmpty(t *testing.T) {
	if got := Run(4, 0, func(_ *MachinePool, i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := Run(4, -3, func(_ *MachinePool, i int) int { return i }); got != nil {
		t.Fatalf("n<0: got %v, want nil", got)
	}
	if got := Run(4, 1, func(_ *MachinePool, i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1: got %v, want [42]", got)
	}
}

// TestPanicPropagation checks that a panic in a point surfaces on the
// caller, and that with several panicking points the lowest index wins so
// the surfaced failure is deterministic.
func TestPanicPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: panic did not propagate", par)
				}
				got, ok := r.([]interface{})
				if !ok || len(got) != 2 || got[0] != 7 || got[1] != boom {
					t.Fatalf("parallel=%d: recovered %v, want [7 boom]", par, r)
				}
			}()
			Run(par, 64, func(_ *MachinePool, i int) int {
				if i >= 7 {
					panic([]interface{}{i, boom})
				}
				return i
			})
		}()
	}
}

// TestPointSeed checks that point seeds are distinct across a large sweep
// and stable as a pure function of (base, index).
func TestPointSeed(t *testing.T) {
	seen := make(map[uint64]int, 4096)
	for i := 0; i < 4096; i++ {
		s := PointSeed(7210, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("PointSeed collision: index %d and %d both map to %#x", prev, i, s)
		}
		seen[s] = i
	}
	if PointSeed(7210, 100) != PointSeed(7210, 100) {
		t.Fatal("PointSeed is not a pure function")
	}
	if PointSeed(7210, 0) == PointSeed(7211, 0) {
		t.Fatal("PointSeed ignores the base seed")
	}
}

// TestRunParallelStress hammers the pool with many more points than
// workers; run under -race this exercises the distinct-index result writes
// and the per-worker pools.
func TestRunParallelStress(t *testing.T) {
	const n = 2000
	var sum atomic.Int64
	got := Run(8, n, func(_ *MachinePool, i int) int {
		sum.Add(int64(i))
		return i
	})
	var want int64
	for i, v := range got {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
		want += int64(i)
	}
	if sum.Load() != want {
		t.Fatalf("points ran %d total, want %d", sum.Load(), want)
	}
}

// TestRunHandsWorkerPool checks the pool contract: the serial path hands
// every point one and the same non-nil pool, and a parallel run hands out
// at most one pool per worker.
func TestRunHandsWorkerPool(t *testing.T) {
	var first *MachinePool
	Run(1, 20, func(pool *MachinePool, i int) int {
		if pool == nil {
			t.Fatalf("parallel=1: point %d got a nil pool", i)
		}
		if first == nil {
			first = pool
		} else if pool != first {
			t.Fatalf("parallel=1: point %d got a different pool", i)
		}
		return i
	})

	var mu sync.Mutex
	seen := map[*MachinePool]bool{}
	Run(4, 200, func(pool *MachinePool, i int) int {
		if pool == nil {
			panic("parallel=4: nil pool")
		}
		mu.Lock()
		seen[pool] = true
		mu.Unlock()
		return i
	})
	if len(seen) > 4 {
		t.Fatalf("parallel=4: %d distinct pools, want at most 4", len(seen))
	}
}
