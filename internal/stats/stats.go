// Package stats provides the small statistical toolbox used throughout the
// capability-model benchmarks: order statistics, robust summaries,
// confidence intervals, least-squares regression and a deterministic PRNG.
//
// The paper reports medians ("within 10% of the 95% confidence intervals")
// and boxplots; everything needed to reproduce those reductions lives here.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Min returns the smallest value in xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs using Kahan compensation.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	mustNonEmpty(xs)
	return Sum(xs) / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It panics on an
// empty slice or p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	mustNonEmpty(xs)
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted computes a percentile assuming s is sorted ascending.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary is a five-number boxplot summary plus mean and sample count.
type Summary struct {
	N                int
	Min, Q1, Med, Q3 float64
	Max              float64
	Mean             float64
	WhiskLo, WhiskHi float64 // Tukey whiskers: extreme points within 1.5 IQR
	OutliersLo       int     // count of points below WhiskLo
	OutliersHi       int     // count of points above WhiskHi
}

// Summarize computes a boxplot Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	mustNonEmpty(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{
		N:    len(s),
		Min:  s[0],
		Max:  s[len(s)-1],
		Q1:   percentileSorted(s, 25),
		Med:  percentileSorted(s, 50),
		Q3:   percentileSorted(s, 75),
		Mean: Mean(s),
	}
	iqr := sum.Q3 - sum.Q1
	loFence := sum.Q1 - 1.5*iqr
	hiFence := sum.Q3 + 1.5*iqr
	sum.WhiskLo, sum.WhiskHi = sum.Max, sum.Min
	for _, x := range s {
		if x < loFence {
			sum.OutliersLo++
			continue
		}
		if x > hiFence {
			sum.OutliersHi++
			continue
		}
		if x < sum.WhiskLo {
			sum.WhiskLo = x
		}
		if x > sum.WhiskHi {
			sum.WhiskHi = x
		}
	}
	return sum
}

// MedianCI returns a distribution-free confidence interval for the median of
// xs at the given confidence level (e.g. 0.95), using the binomial order-
// statistic method with a normal approximation for the ranks. The returned
// bounds are actual sample values. It panics on an empty slice.
func MedianCI(xs []float64, level float64) (lo, hi float64) {
	mustNonEmpty(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	z := zScore(level)
	d := z * math.Sqrt(float64(n)) / 2
	loIdx := int(math.Floor(float64(n)/2 - d))
	hiIdx := int(math.Ceil(float64(n)/2+d)) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	return s[loIdx], s[hiIdx]
}

// zScore returns the two-sided standard-normal quantile for a confidence
// level (0.90 -> 1.645, 0.95 -> 1.960, 0.99 -> 2.576). Intermediate levels
// use an Acklam-style rational approximation of the probit function.
func zScore(level float64) float64 {
	if level <= 0 || level >= 1 {
		panic("stats: confidence level must be in (0,1)")
	}
	p := 1 - (1-level)/2 // upper-tail probability point
	return probit(p)
}

// probit is an approximation of the inverse standard normal CDF
// (Peter Acklam's algorithm, relative error < 1.15e-9).
func probit(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

func mustNonEmpty(xs []float64) {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
}
