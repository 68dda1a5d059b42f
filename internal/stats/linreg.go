package stats

import (
	"errors"

	"knlcap/internal/units"
)

// LinearFit is the result of an ordinary least-squares fit y = Alpha + Beta*x.
// This is the form used throughout the paper: contention T_C(N) = α + β·N,
// multi-line latency T(N) = α + β·N, and the sort overhead model.
type LinearFit struct {
	Alpha, Beta float64
	R2          float64 // coefficient of determination
	N           int
}

// ErrBadFit is returned when a regression input is degenerate.
var ErrBadFit = errors.New("stats: degenerate regression input")

// LinReg fits y = alpha + beta*x by ordinary least squares.
// It returns ErrBadFit if fewer than two points are given or all x are equal.
func LinReg(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: x/y length mismatch")
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, ErrBadFit
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx <= 0 {
		return LinearFit{}, ErrBadFit
	}
	beta := sxy / sxx
	alpha := my - beta*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := 0; i < n; i++ {
			r := y[i] - (alpha + beta*x[i])
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Alpha: alpha, Beta: beta, R2: r2, N: n}, nil
}

// NanosFit is a LinearFit whose response variable is a time — the form every
// fit in the paper takes (contention, multi-line latency, sort overhead).
// Alpha is the intercept time and Beta the time per unit of the regressor.
type NanosFit struct {
	Alpha, Beta units.Nanos
	R2          float64
	N           int
}

// Nanos views the fit's coefficients as typed times. Use it at the point
// where the regression's response is known to be nanoseconds; the raw
// LinearFit stays dimensionless for everything else.
func (f LinearFit) Nanos() NanosFit {
	return NanosFit{Alpha: units.Nanos(f.Alpha), Beta: units.Nanos(f.Beta), R2: f.R2, N: f.N}
}
