package rng

import (
	"math"
	"testing"

	"passivespread/internal/dist"
)

func TestMultinomialConserves(t *testing.T) {
	src := New(1)
	pmf := []float64{0.1, 0.3, 0.4, 0.2}
	for _, m := range []int{0, 1, 7, 1000, 1 << 20} {
		out := src.Multinomial(m, pmf, nil)
		sum := 0
		for _, k := range out {
			if k < 0 {
				t.Fatalf("negative count in %v", out)
			}
			sum += k
		}
		if sum != m {
			t.Fatalf("Multinomial(%d) split into %d trials: %v", m, sum, out)
		}
	}
}

func TestMultinomialMeans(t *testing.T) {
	src := New(2)
	pmf := []float64{0.05, 0.25, 0.5, 0.2}
	const (
		m      = 1000
		trials = 5000
	)
	sums := make([]float64, len(pmf))
	out := make([]int, len(pmf))
	for i := 0; i < trials; i++ {
		src.Multinomial(m, pmf, out)
		for j, k := range out {
			sums[j] += float64(k)
		}
	}
	for j, p := range pmf {
		mean := sums[j] / trials
		want := p * m
		// 6σ band for the per-trial count across `trials` repetitions.
		tol := 6 * math.Sqrt(m*p*(1-p)/trials)
		if math.Abs(mean-want) > tol {
			t.Fatalf("category %d mean %v, want %v ± %v", j, mean, want, tol)
		}
	}
}

func TestMultinomialDegenerate(t *testing.T) {
	src := New(3)
	// All mass on the first category: everything lands there.
	out := src.Multinomial(100, []float64{1, 0, 0}, nil)
	if out[0] != 100 || out[1] != 0 || out[2] != 0 {
		t.Fatalf("degenerate split %v", out)
	}
	// Single category.
	out = src.Multinomial(42, []float64{1}, nil)
	if out[0] != 42 {
		t.Fatalf("single-category split %v", out)
	}
}

func TestMultinomialPanics(t *testing.T) {
	src := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative m")
		}
	}()
	src.Multinomial(-1, []float64{1}, nil)
}

// mustPMFMassPanic runs f and requires it to panic with a *PMFMassError
// reporting the given observed sum.
func mustPMFMassPanic(t *testing.T, wantSum float64, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for bad pmf mass")
		}
		err, ok := r.(*PMFMassError)
		if !ok {
			t.Fatalf("panicked with %T (%v), want *PMFMassError", r, r)
		}
		if math.Abs(err.Sum-wantSum) > 1e-12 {
			t.Fatalf("PMFMassError.Sum = %v, want %v", err.Sum, wantSum)
		}
		if err.Error() == "" {
			t.Fatal("empty PMFMassError message")
		}
	}()
	f()
}

// TestMultinomialRejectsDeficientPMF: a pmf that sums well below 1 (a
// truncated occupancy vector) must be rejected with the observed sum —
// not have all leftover trials silently dumped into the last category.
func TestMultinomialRejectsDeficientPMF(t *testing.T) {
	src := New(5)
	mustPMFMassPanic(t, 0.6, func() {
		src.Multinomial(100, []float64{0.1, 0.2, 0.3}, nil)
	})
}

// TestMultinomialRejectsSuperunitaryPMF: mass meaningfully above 1 is
// just as invalid.
func TestMultinomialRejectsSuperunitaryPMF(t *testing.T) {
	src := New(6)
	mustPMFMassPanic(t, 1.25, func() {
		src.Multinomial(100, []float64{0.5, 0.5, 0.25}, nil)
	})
}

// TestMultinomialRejectsNegativeEntry guards the per-entry validation.
func TestMultinomialRejectsNegativeEntry(t *testing.T) {
	src := New(7)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative pmf entry")
		}
	}()
	src.Multinomial(10, []float64{1.2, -0.2}, nil)
}

// TestMultinomialToleratesRounding: float-rounding-level mass error must
// keep working — the occupancy engines build pmfs whose sums miss 1 by a
// few ulps, and the shortfall still lands on the last category.
func TestMultinomialToleratesRounding(t *testing.T) {
	src := New(8)
	third := 1.0 / 3
	pmf := []float64{third, third, third} // sums to 1 − 1 ulp
	out := src.Multinomial(1000, pmf, nil)
	sum := 0
	for _, k := range out {
		sum += k
	}
	if sum != 1000 {
		t.Fatalf("rounded pmf split into %d trials: %v", sum, out)
	}
}

// TestPMFVectorMassNearDegenerate pins the pmf vectors the aggregate
// engines hand to Multinomial when almost every observed bit agrees: for
// q = 1−p in [1e-7, 1e-4] the start term q^ℓ of dist.PMFVector's forward
// recurrence is subnormal for ℓ near 60 (n ≈ 2^20), and a drifted mass
// used to trip the pmfMassTol check (a panic in the caller's goroutine).
func TestPMFVectorMassNearDegenerate(t *testing.T) {
	for _, ell := range []int{30, 45, 51, 60, 66, 75, 90} {
		for i := 0; i <= 300; i++ {
			q := math.Pow(10, -7+3*float64(i)/300)
			for _, p := range []float64{1 - q, q} {
				sum := 0.0
				for _, v := range dist.PMFVector(ell, p) {
					sum += v
				}
				if math.Abs(sum-1) > pmfMassTol {
					t.Fatalf("ℓ=%d p=%v: pmf mass %v, want 1 within %v", ell, p, sum, pmfMassTol)
				}
			}
		}
	}
}
