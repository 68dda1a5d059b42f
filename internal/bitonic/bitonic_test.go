package bitonic

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"knlcap/internal/stats"
)

func sorted32(v []int32) []int32 {
	out := append([]int32(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSort16OfWithDuplicatesAndExtremes(t *testing.T) {
	// Duplicates and the int32 extremes, which a compare-exchange that
	// subtracted instead of compared would overflow on.
	for _, v := range [][16]int32{
		{math.MaxInt32, -1, 0, 0, math.MinInt32, 5, 5, 5, -7, 2, 2, math.MaxInt32, math.MinInt32, 3, 3, 0},
		{math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32,
			math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32},
	} {
		want := sorted32(v[:])
		got := v
		Sort16(&got)
		if !equal(got[:], want) {
			t.Fatalf("Sort16(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestSort16Exhaustive(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 2000; trial++ {
		var v [16]int32
		for i := range v {
			v[i] = int32(rng.Intn(64) - 32) // many duplicates
		}
		want := sorted32(v[:])
		Sort16(&v)
		if !equal(v[:], want) {
			t.Fatalf("Sort16 failed on trial %d: %v", trial, v)
		}
	}
}

func TestSort16Property(t *testing.T) {
	f := func(raw [16]int32) bool {
		v := raw
		Sort16(&v)
		return equal(v[:], sorted32(raw[:]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMerge16(t *testing.T) {
	rng := stats.NewRNG(2)
	for trial := 0; trial < 2000; trial++ {
		var lo, hi [16]int32
		for i := range lo {
			lo[i] = int32(rng.Intn(1000))
			hi[i] = int32(rng.Intn(1000))
		}
		Sort16(&lo)
		Sort16(&hi)
		all := append(append([]int32(nil), lo[:]...), hi[:]...)
		want := sorted32(all)
		Merge16(&lo, &hi)
		got := append(append([]int32(nil), lo[:]...), hi[:]...)
		if !equal(got, want) {
			t.Fatalf("Merge16 failed on trial %d", trial)
		}
	}
}

func TestMergeSortedRandom(t *testing.T) {
	rng := stats.NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		na := (1 + rng.Intn(16)) * Width
		nb := (1 + rng.Intn(16)) * Width
		a := make([]int32, na)
		b := make([]int32, nb)
		for i := range a {
			a[i] = int32(rng.Intn(500))
		}
		for i := range b {
			b[i] = int32(rng.Intn(500))
		}
		a = sorted32(a)
		b = sorted32(b)
		dst := make([]int32, na+nb)
		nets := MergeSorted(dst, a, b)
		want := sorted32(append(append([]int32(nil), a...), b...))
		if !equal(dst, want) {
			t.Fatalf("MergeSorted failed on trial %d (na=%d nb=%d)", trial, na, nb)
		}
		if wantNets := (na+nb)/Width - 1; nets != wantNets {
			t.Errorf("network count = %d, want %d", nets, wantNets)
		}
	}
}

func TestMergeSortedAdversarial(t *testing.T) {
	// The carry-invariant stress case: one list has a tiny head hiding a
	// huge tail inside its first vector.
	a := make([]int32, 32)
	b := make([]int32, 32)
	a[0] = 1
	for i := 1; i < 16; i++ {
		a[i] = 300 + int32(i)
	}
	for i := 16; i < 32; i++ {
		a[i] = 400 + int32(i)
	}
	for i := range b {
		b[i] = int32(10 + i)
	}
	dst := make([]int32, 64)
	MergeSorted(dst, a, b)
	want := sorted32(append(append([]int32(nil), a...), b...))
	if !equal(dst, want) {
		t.Fatalf("adversarial merge failed:\ngot  %v\nwant %v", dst, want)
	}
}

func TestMergeSortedEmptySides(t *testing.T) {
	a := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	dst := make([]int32, 16)
	if nets := MergeSorted(dst, a, nil); nets != 0 || !equal(dst, a) {
		t.Error("merge with empty b failed")
	}
	if nets := MergeSorted(dst, nil, a); nets != 0 || !equal(dst, a) {
		t.Error("merge with empty a failed")
	}
}

func TestMergeSortedPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned merge did not panic")
		}
	}()
	MergeSorted(make([]int32, 8), make([]int32, 8), nil)
}

func TestSortBlockSizes(t *testing.T) {
	rng := stats.NewRNG(4)
	for _, tc := range []struct {
		blocks int
		gen    func(i int) int32
	}{
		{0, nil}, {1, nil}, {2, nil}, {3, nil}, {4, nil}, {7, nil}, {8, nil}, {16, nil}, {64, nil}, {100, nil},
		// Heavy duplicates: 128 values drawn from 100.
		{8, func(int) int32 { return int32(rng.Intn(100)) }},
		// Only the two extremes, alternating.
		{5, func(i int) int32 {
			if i%3 == 0 {
				return math.MaxInt32
			}
			return math.MinInt32
		}},
	} {
		blocks, gen := tc.blocks, tc.gen
		if gen == nil {
			gen = func(int) int32 { return int32(rng.Intn(10000) - 5000) }
		}
		n := blocks * Width
		v := make([]int32, n)
		for i := range v {
			v[i] = gen(i)
		}
		want := sorted32(v)
		SortBlock(v)
		if !equal(v, want) {
			t.Fatalf("SortBlock failed for %d blocks", blocks)
		}
	}
}

func TestSortBlockProperty(t *testing.T) {
	f := func(raw []int32, pad uint8) bool {
		n := (len(raw) / Width) * Width
		v := append([]int32(nil), raw[:n]...)
		want := sorted32(v)
		SortBlock(v)
		return equal(v, want) && slices.IsSorted(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSort16(b *testing.B) {
	var v [16]int32
	rng := stats.NewRNG(5)
	for i := range v {
		v[i] = int32(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := v
		Sort16(&w)
	}
}

func BenchmarkMergeSorted64K(b *testing.B) {
	rng := stats.NewRNG(6)
	n := 32 * 1024
	a1 := make([]int32, n)
	a2 := make([]int32, n)
	for i := range a1 {
		a1[i] = int32(rng.Intn(1 << 30))
		a2[i] = int32(rng.Intn(1 << 30))
	}
	a1 = sorted32(a1)
	a2 = sorted32(a2)
	dst := make([]int32, 2*n)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSorted(dst, a1, a2)
	}
}
