package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The tail rule: report the highest percentile that still has at least
// ten samples beyond it, and never less than the median.
func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {14, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}
	if got := percentile(hundred, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver judges spread with.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if !near(q1, 10) || !near(q2, 20) || !near(q3, 40) {
		t.Errorf("quartiles(10,20,40) = %v %v %v", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}
