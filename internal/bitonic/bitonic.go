// Package bitonic implements the width-16 bitonic sorting and merging
// networks the paper's merge sort builds on (Section V-B): the KNL
// implementation runs them as AVX-512 permute/min/max sequences over one
// cache line of int32; here the same networks run as straight-line Go
// compare-exchange code. Width 16 means one 64 B line per vector, so the
// per-merge line counts of Equations 3-5 carry over exactly.
package bitonic

// Width is the network width in int32 elements (one cache line).
const Width = 16

func ce(v []int32, i, j int) {
	if v[i] > v[j] {
		v[i], v[j] = v[j], v[i]
	}
}

// Sort16 sorts 16 int32 elements in place with the full bitonic sorting
// network (10 levels of 8 compare-exchanges, the depth an AVX-512
// implementation pipelines).
func Sort16(v *[16]int32) {
	s := v[:]
	for k := 2; k <= 16; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			for i := 0; i < 16; i++ {
				l := i ^ j
				if l > i {
					if i&k == 0 {
						ce(s, i, l)
					} else {
						ce(s, l, i)
					}
				}
			}
		}
	}
}

// Merge16 merges two sorted 16-element vectors: on return lo holds the 16
// smallest and hi the 16 largest, both sorted ascending. This is the
// network applied once per produced line in the merge kernel.
func Merge16(lo, hi *[16]int32) {
	for i, j := 0, 15; i < j; i, j = i+1, j-1 {
		hi[i], hi[j] = hi[j], hi[i]
	}
	for i := 0; i < 16; i++ {
		if lo[i] > hi[i] {
			lo[i], hi[i] = hi[i], lo[i]
		}
	}
	cleanBitonic(lo[:])
	cleanBitonic(hi[:])
}

func cleanBitonic(s []int32) {
	for j := 8; j > 0; j /= 2 {
		for i := 0; i < 16; i++ {
			l := i ^ j
			if l > i {
				ce(s, i, l)
			}
		}
	}
}

// MergeSorted merges two sorted int32 slices into dst using the width-16
// network, the streaming pattern of the paper's merge kernel: keep a
// 16-element "output carry" register, repeatedly merge it with the next
// vector from whichever input has the smaller head, and emit the low half.
// len(dst) must equal len(a)+len(b); inputs must be multiples of 16 and
// sorted ascending. Returns the number of network applications (the
// compute-model observable).
//
// Correctness of the head-selection rule: every element already in the
// carry is bounded by its origin list's current head (lists are sorted and
// whole vectors are consumed), so the 16 smallest of carry+next are always
// smaller than everything unconsumed.
func MergeSorted(dst, a, b []int32) int {
	if len(a)%Width != 0 || len(b)%Width != 0 || len(dst) != len(a)+len(b) {
		panic("bitonic: inputs must be multiples of 16 and dst sized to fit")
	}
	nets := 0
	switch {
	case len(a) == 0:
		copy(dst, b)
		return 0
	case len(b) == 0:
		copy(dst, a)
		return 0
	}
	var lo, hi [16]int32
	copy(lo[:], a[:Width])
	ai, bi, di := Width, 0, 0
	for {
		var next []int32
		if ai < len(a) && (bi >= len(b) || a[ai] <= b[bi]) {
			next = a[ai : ai+Width]
			ai += Width
		} else if bi < len(b) {
			next = b[bi : bi+Width]
			bi += Width
		} else {
			copy(dst[di:], lo[:])
			return nets
		}
		copy(hi[:], next)
		Merge16(&lo, &hi)
		nets++
		copy(dst[di:], lo[:])
		di += Width
		lo = hi
	}
}

// SortBlock sorts a slice whose length is a multiple of 16 in place:
// network-sort each 16-block, then ping-pong merge passes with the width-16
// merge kernel. This is the thread-local phase of the parallel sort.
// Returns the number of network applications.
func SortBlock(v []int32) int {
	n := len(v)
	if n%Width != 0 {
		panic("bitonic: length must be a multiple of 16")
	}
	if n == 0 {
		return 0
	}
	nets := 0
	var blk [16]int32
	for i := 0; i < n; i += Width {
		copy(blk[:], v[i:i+Width])
		Sort16(&blk)
		copy(v[i:i+Width], blk[:])
		nets++
	}
	buf := make([]int32, n)
	src, dst := v, buf
	for run := Width; run < n; run *= 2 {
		for lo := 0; lo < n; lo += 2 * run {
			mid := lo + run
			hiEnd := lo + 2*run
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				continue
			}
			if hiEnd > n {
				hiEnd = n
			}
			nets += MergeSorted(dst[lo:hiEnd], src[lo:mid], src[mid:hiEnd])
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
	return nets
}
