// Package stats provides small statistical helpers used by the experiment
// harness: sample summaries (order statistics over accumulated
// observations), online moments (Welford-style mean/variance without
// retaining samples), fixed-width histograms, and least-squares linear
// regression.
//
// The regression is what turns the paper's §3 "unbounded growth" claims
// into measurements: the unbounded-baseline experiment fits the baseline
// protocol's replay-acceptance and discard counts against traffic volume
// and reports slope and R², so "grows linearly without bound" is a fitted
// coefficient rather than a narrative. Everything is dependency-free and
// deterministic — no internal randomness — because the experiment tables
// must reproduce bit-for-bit from a seed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by computations that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// ErrMismatchedLen is returned when paired samples have different lengths.
var ErrMismatchedLen = errors.New("stats: mismatched sample lengths")

// Sample accumulates float64 observations and answers order statistics.
// The zero value is an empty sample ready for use. Sample is not safe for
// concurrent use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends observations to the sample.
func (s *Sample) Add(vs ...float64) {
	s.xs = append(s.xs, vs...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Sum returns the sum of the observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Var returns the unbiased sample variance (n-1 denominator); 0 when n < 2.
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Values returns a copy of the observations (sorted if Percentile has been
// called; otherwise in insertion order).
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d min=%g mean=%g max=%g std=%g",
		s.Len(), s.Min(), s.Mean(), s.Max(), s.Std())
}

// Welford accumulates mean and variance online in a single pass using
// Welford's algorithm. The zero value is ready for use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean; 0 when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased running variance; 0 when n < 2.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Fit is the result of a least-squares linear regression y = Slope*x +
// Intercept with coefficient of determination R2.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the least-squares line through the paired observations.
// It returns ErrNoData for fewer than two points and ErrMismatchedLen when
// the slices differ in length. A vertical line (zero x-variance) is an error
// wrapped around ErrNoData.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("%w: len(xs)=%d len(ys)=%d", ErrMismatchedLen, len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("linear fit needs >= 2 points: %w", ErrNoData)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("linear fit undefined for constant x: %w", ErrNoData)
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // constant y fit exactly by horizontal line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}
