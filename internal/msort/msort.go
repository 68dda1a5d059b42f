// Package msort implements the paper's memory-bound application study
// (Section V-B): a parallel integer merge sort whose merge kernel is the
// width-16 bitonic network, with ping-pong buffers. Two views exist:
//
//   - ParallelSort: a real, working Go implementation (validated against
//     the standard library) that mirrors the algorithm structure;
//   - Simulate: the same algorithm replayed on the simulated KNL to obtain
//     the "measured" curves of Figure 10, including thread-management
//     overhead and flag synchronization.
package msort

import (
	"fmt"
	"sync"

	"knlcap/internal/bitonic"
)

// minParallelBlock is the smallest per-thread chunk (in elements) worth
// splitting; below this the thread count is reduced.
const minParallelBlock = bitonic.Width

// ParallelSort sorts v (length must be a multiple of 16) using up to
// `threads` OS threads: each thread network-sorts its chunk, then merge
// stages halve the number of active threads, ping-ponging between v and a
// scratch buffer. Returns the number of threads actually used (a power of
// two).
func ParallelSort(v []int32, threads int) int {
	n := len(v)
	if n%bitonic.Width != 0 {
		panic(fmt.Sprintf("msort: length %d not a multiple of %d", n, bitonic.Width))
	}
	if n == 0 {
		return 0
	}
	p := effectiveThreads(n, threads)
	bounds := chunkBounds(n, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			bitonic.SortBlock(v[lo:hi])
		}(bounds[r], bounds[r+1])
	}
	wg.Wait()
	scratch := make([]int32, n)
	src, dst := v, scratch
	for width := 1; width < p; width *= 2 {
		var mg sync.WaitGroup
		for r := 0; r < p; r += 2 * width {
			lo := bounds[r]
			mid := bounds[r+width]
			hi := bounds[min(r+2*width, p)]
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				bitonic.MergeSorted(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(lo, mid, hi)
		}
		mg.Wait()
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
	return p
}

// effectiveThreads rounds the thread count down to a power of two and
// caps it so every thread has at least one 16-element block.
func effectiveThreads(n, threads int) int {
	if threads < 1 {
		threads = 1
	}
	maxP := n / minParallelBlock
	if maxP < 1 {
		maxP = 1
	}
	p := 1
	for p*2 <= threads && p*2 <= maxP {
		p *= 2
	}
	return p
}

// chunkBounds splits n elements into p chunks aligned to 16-element blocks.
func chunkBounds(n, p int) []int {
	blocks := n / bitonic.Width
	bounds := make([]int, p+1)
	for r := 0; r <= p; r++ {
		bounds[r] = (blocks * r / p) * bitonic.Width
	}
	bounds[p] = n
	return bounds
}
