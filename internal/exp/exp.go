// Package exp is the deterministic parallel experiment runner.
//
// Every evaluation artifact of the paper — the table columns, the per-core
// latency sweep, the thread-count and message-size scans — is a set of
// independent simulation points: each point takes a machine.Machine for an
// explicit configuration and seed from its worker's MachinePool, runs to
// completion, returns the machine, and reduces to a few numbers. Run fans
// those points out over a bounded worker pool and collects the results in
// submission order, so a sweep's output is a pure function of its inputs:
// bit-identical whether it ran on one worker or sixteen, in whatever order
// the host scheduler picked. RunMemo puts the content-addressed result
// cache in front of Run.
//
// The contract a point function must honor is isolation: it must not touch
// a sim.Env, machine.Machine, or any other mutable state shared with
// another point (ci.sh runs TestParallelEquivalence, which drives the
// bench, coll and msort sweeps, under -race). Everything a point needs
// it builds itself from value-type inputs or takes from the pool it is
// handed; per-point randomness derives from PointSeed(base, i).
//
// A sweep point never builds its own machine; it takes one from its
// worker's pool and puts it back when its run has completed. A recycled
// machine is digest-identical to a fresh one (the Machine.Reset contract),
// so pooling changes no result, and a worker pays for a machine's
// construction and the tag blocks its points touch once per sweep instead
// of once per point. ci.sh rejects a point that ignores its pool.
package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes point(pool, 0..n-1) on `parallel` workers and returns the
// results in index order. parallel <= 0 uses runtime.GOMAXPROCS(0);
// parallel == 1 is the plain loop on the calling goroutine. Each worker
// owns one MachinePool and hands it to every point it runs: a worker runs
// its points strictly one after another, so the pool needs no locking,
// and by the Machine.Reset contract a recycled machine cannot leak state
// from one point into the next. A panic inside a point is re-raised on
// the caller, lowest index first.
func Run[T any](parallel, n int, point func(pool *MachinePool, i int) T) []T {
	if n <= 0 {
		return nil
	}
	results := make([]T, n)
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers == 1 {
		pool := new(MachinePool)
		for i := range results {
			results[i] = point(pool, i)
		}
		return results
	}

	var (
		next   atomic.Int64
		panics = make([]*pointPanic, n)
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := new(MachinePool)
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				panics[i] = runPoint(point, pool, i, results)
			}
		}()
	}
	wg.Wait()
	for _, pp := range panics {
		if pp != nil {
			panic(pp.value)
		}
	}
	return results
}

// pointPanic carries a recovered panic value from a worker back to the
// calling goroutine.
type pointPanic struct {
	value interface{}
}

// runPoint executes one point, converting a panic into a value so one bad
// point cannot tear down a worker silently; the caller re-raises the
// lowest-index panic after the pool drains, which keeps the surfaced
// failure deterministic even when several points panic.
func runPoint[T any](point func(pool *MachinePool, i int) T, pool *MachinePool, i int, results []T) (pp *pointPanic) {
	defer func() {
		if r := recover(); r != nil {
			pp = &pointPanic{value: r}
		}
	}()
	results[i] = point(pool, i)
	return nil
}

// PointSeed derives the seed for point i from a sweep-level base seed with
// a splitmix64 mix, so neighboring points get decorrelated streams while
// the mapping stays a pure function of (base, i).
func PointSeed(base uint64, i int) uint64 {
	z := base + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
