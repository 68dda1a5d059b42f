//lint:file-ignore floatcmp order statistics of exactly representable inputs are exact; equality is the contract

package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMinMaxSumMean(t *testing.T) {
	xs := []float64{3, -1, 4, 1.5, 9, -2.5}
	if got := Min(xs); got != -2.5 {
		t.Errorf("Min = %v, want -2.5", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := Sum(xs); !almostEq(got, 14, 1e-12) {
		t.Errorf("Sum = %v, want 14", got)
	}
	if got := Mean(xs); !almostEq(got, 14.0/6, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, 14.0/6)
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Min":       func() { Min(nil) },
		"Max":       func() { Max(nil) },
		"Mean":      func() { Mean(nil) },
		"Median":    func() { Median(nil) },
		"Summarize": func() { Summarize(nil) },
		"MedianCI":  func() { MedianCI(nil, 0.95) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(empty) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v, want 7", got)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("P100 = %v, want 40", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("P50 = %v, want 25", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	s := Summarize(xs)
	if s.N != 10 || s.Min != 1 || s.Max != 100 || s.Med != 5.5 {
		t.Errorf("Summary basic fields wrong: %+v", s)
	}
	if s.OutliersHi != 1 {
		t.Errorf("OutliersHi = %d, want 1 (the 100)", s.OutliersHi)
	}
	if s.WhiskHi != 9 {
		t.Errorf("WhiskHi = %v, want 9", s.WhiskHi)
	}
	if s.WhiskLo != 1 {
		t.Errorf("WhiskLo = %v, want 1", s.WhiskLo)
	}
}

func TestMedianCIBracketsMedian(t *testing.T) {
	rng := NewRNG(42)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	med := Median(xs)
	lo, hi := MedianCI(xs, 0.95)
	if !(lo <= med && med <= hi) {
		t.Errorf("CI [%v, %v] does not bracket median %v", lo, hi, med)
	}
	lo90, hi90 := MedianCI(xs, 0.90)
	if lo90 < lo || hi90 > hi {
		t.Errorf("90%% CI [%v,%v] wider than 95%% CI [%v,%v]", lo90, hi90, lo, hi)
	}
}

func TestZScoreKnownValues(t *testing.T) {
	for _, tc := range []struct{ level, want float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758},
	} {
		if got := zScore(tc.level); !almostEq(got, tc.want, 1e-3) {
			t.Errorf("zScore(%v) = %v, want %v", tc.level, got, tc.want)
		}
	}
}

// Property: the median is invariant under permutation and lies within
// [min, max].
func TestMedianProperties(t *testing.T) {
	f := func(raw []float64, seed uint64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		if m < Min(xs) || m > Max(xs) {
			return false
		}
		perm := make([]float64, len(xs))
		for i, j := range NewRNG(seed).Perm(len(xs)) {
			perm[i] = xs[j]
		}
		return Median(perm) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Summarize ordering Min <= Q1 <= Med <= Q3 <= Max.
func TestSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Med && s.Med <= s.Q3 && s.Q3 <= s.Max &&
			s.Min <= s.WhiskLo && s.WhiskHi <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitize strips NaN/Inf from fuzz inputs and truncates huge magnitudes,
// which are not meaningful latency samples.
func sanitize(raw []float64) []float64 {
	var xs []float64
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if math.Abs(x) > 1e100 {
			continue
		}
		xs = append(xs, x)
	}
	return xs
}

func TestLinRegExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 200 + 34*v // the paper's contention model shape
	}
	fit, err := LinReg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Alpha, 200, 1e-9) || !almostEq(fit.Beta, 34, 1e-9) {
		t.Errorf("fit = %+v, want alpha=200 beta=34", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinRegNoisy(t *testing.T) {
	rng := NewRNG(7)
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		// Uniform noise of unit variance.
		y = append(y, 10+0.5*xi+(rng.Float64()-0.5)*math.Sqrt(12))
	}
	fit, err := LinReg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Alpha, 10, 0.5) || !almostEq(fit.Beta, 0.5, 0.01) {
		t.Errorf("noisy fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", fit.R2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	if _, err := LinReg([]float64{1}, []float64{2}); err == nil {
		t.Error("single point: want error")
	}
	if _, err := LinReg([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x: want error")
	}
	if _, err := LinReg([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestLinRegResiduals(t *testing.T) {
	x := []float64{0, 1, 2}
	y := []float64{1, 3, 5}
	fit, err := LinReg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if r := y[i] - (fit.Alpha + fit.Beta*x[i]); !almostEq(r, 0, 1e-9) {
			t.Errorf("residual[%d] = %v, want 0", i, r)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(100)
	same := true
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical first 10 values")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; !almostEq(mean, 0.5, 0.01) {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

// TestRNGPermIntoMatchesPerm: the in-place variant must produce the same
// permutation AND leave the generator in the same state, so a measurement
// loop can swap one for the other without perturbing any later draw.
func TestRNGPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32, 129} {
		a, b := NewRNG(uint64(n)*17+1), NewRNG(uint64(n)*17+1)
		p := a.Perm(n)
		q := make([]int, n)
		b.PermInto(q)
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("n=%d: PermInto diverged from Perm at %d: %v vs %v", n, i, q, p)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("n=%d: PermInto consumed the generator differently", n)
		}
		if au, bu := a.Uint64(), b.Uint64(); au != bu {
			t.Fatalf("n=%d: next draw differs after Perm vs PermInto: %d vs %d", n, au, bu)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%64)
		p := NewRNG(seed).Perm(n)
		q := append([]int(nil), p...)
		sort.Ints(q)
		for i, v := range q {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
