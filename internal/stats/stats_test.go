package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleBasics(t *testing.T) {
	var s Sample
	s.Add(3, 1, 4, 1, 5, 9, 2, 6)
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if got := s.Sum(); got != 31 {
		t.Errorf("Sum = %g, want 31", got)
	}
	if got := s.Mean(); !almostEqual(got, 3.875, 1e-12) {
		t.Errorf("Mean = %g, want 3.875", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %g, want 1", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %g, want 9", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Std() != 0 {
		t.Error("empty sample should report zeros")
	}
	if s.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSampleVariance(t *testing.T) {
	var s Sample
	s.Add(2, 4, 4, 4, 5, 5, 7, 9)
	// population variance is 4; unbiased (n-1) variance is 32/7.
	if got, want := s.Var(), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Var = %g, want %g", got, want)
	}
}

func TestSampleSingleValueVariance(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Var() != 0 {
		t.Errorf("Var of single value = %g, want 0", s.Var())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	s.Add(10, 20, 30, 40, 50)
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40},
		{-5, 10}, {110, 50}, {12.5, 15},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if got := s.Median(); got != 30 {
		t.Errorf("Median = %g, want 30", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s Sample
	s.Add(50, 10, 40, 20, 30)
	if got := s.Percentile(50); got != 30 {
		t.Errorf("Percentile(50) = %g, want 30", got)
	}
	// Adding after sorting must re-sort on next query.
	s.Add(5)
	if got := s.Percentile(0); got != 5 {
		t.Errorf("Percentile(0) after Add = %g, want 5", got)
	}
}

func TestSampleValuesCopy(t *testing.T) {
	var s Sample
	s.Add(1, 2, 3)
	v := s.Values()
	v[0] = 99
	if s.Min() == 99 {
		t.Error("Values must return a copy")
	}
}

func TestPercentileWithinBounds(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		var s Sample
		ok := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				ok = true
			}
		}
		if !ok {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		got := s.Percentile(pp)
		return got >= s.Min() && got <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sample
	var w Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		s.Add(x)
		w.Add(x)
	}
	if w.N() != 1000 {
		t.Fatalf("N = %d, want 1000", w.N())
	}
	if !almostEqual(w.Mean(), s.Mean(), 1e-9) {
		t.Errorf("Welford Mean = %g, Sample Mean = %g", w.Mean(), s.Mean())
	}
	if !almostEqual(w.Var(), s.Var(), 1e-9) {
		t.Errorf("Welford Var = %g, Sample Var = %g", w.Var(), s.Var())
	}
	if !almostEqual(w.Std(), s.Std(), 1e-9) {
		t.Errorf("Welford Std = %g, Sample Std = %g", w.Std(), s.Std())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Error("empty Welford should report zeros")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if !almostEqual(fit.Slope, 3, 1e-12) {
		t.Errorf("Slope = %g, want 3", fit.Slope)
	}
	if !almostEqual(fit.Intercept, -7, 1e-12) {
		t.Errorf("Intercept = %g, want -7", fit.Intercept)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	fit, err := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Errorf("fit = %+v, want slope 0 intercept 5 r2 1", fit)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrNoData) {
		t.Errorf("single point: err = %v, want ErrNoData", err)
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrMismatchedLen) {
		t.Errorf("mismatched: err = %v, want ErrMismatchedLen", err)
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrNoData) {
		t.Errorf("constant x: err = %v, want ErrNoData", err)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+1+rng.NormFloat64()*0.5)
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if !almostEqual(fit.Slope, 2, 0.01) {
		t.Errorf("Slope = %g, want ~2", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %g, want > 0.999", fit.R2)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1, 2, 3)
	if got := s.String(); got == "" {
		t.Error("String should not be empty")
	}
}
