package exp

import "knlcap/internal/memo"

// RunMemo is Run with a content-addressed result cache in front: a hit
// returns the stored point slice without building a single machine; a miss
// runs the sweep and stores the results under key. A panicking point
// re-raises out of Run before the store, so a partial result never enters
// the cache. A nil cache degrades to a plain Run.
//
// The caller owns the key discipline: key must fold every input the points
// depend on (bench.Options.KeyFor is the standard builder). Worker count is
// deliberately not part of any key — sweeps are bit-identical across
// Parallel settings, which the equivalence tests assert.
func RunMemo[T any](parallel int, c *memo.Cache, key memo.Key, n int, point func(pool *MachinePool, i int) T) []T {
	if vals, ok := memo.Lookup[[]T](c, key); ok {
		return vals
	}
	vals := Run(parallel, n, point)
	memo.Store(c, key, vals)
	return vals
}
