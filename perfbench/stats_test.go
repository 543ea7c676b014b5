package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: tailOf must sort
	}
	got, err := tailOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted 1..1000: exactly ten samples (991..1000) lie above 990.
	if got.Value != 990 || got.Pct != 99 || got.Samples != 1000 {
		t.Fatalf("tailOf = %+v, want value 990 at p99 over 1000 samples", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
}

func TestTailSmallSampleSets(t *testing.T) {
	got, err := tailOf([]float64{7, 2, 9, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 9 || got.Pct != 100 || got.Samples != 4 {
		t.Fatalf("tailOf of 4 samples = %+v, want the maximum as p100", got)
	}
	// Eleven samples: the smallest is the only one with ten above it.
	xs := []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, _ := tailOf(xs); got.Value != 1 || got.Samples != 11 {
		t.Fatalf("tailOf of 11 samples = %+v, want value 1", got)
	}
	if _, err := tailOf(nil); err == nil {
		t.Fatal("tailOf(nil) succeeded")
	}
}

// Window metrics are medians over full windows of wall-time rates; a
// window with under half a window of wall time is left out.
func TestWindowMetrics(t *testing.T) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	lr := loopResult{windows: []window{
		{ops: 10, wall: ms(1000), lat: []float64{90e3, 100e3, 110e3}, rssMB: 50},
		{ops: 8, wall: ms(1000), lat: []float64{120e3, 125e3}, rssMB: 70},
		{ops: 5, wall: ms(500), lat: []float64{200e3}, rssMB: 60},
		{ops: 1, wall: ms(100), lat: []float64{900e3}, rssMB: 500},
	}}
	if got := lr.opsPerS(); got != 10 {
		t.Errorf("opsPerS = %v, want 10 (median of 10, 8, 10)", got)
	}
	if got := lr.p50(); got != 122.5e3 {
		t.Errorf("p50 = %v, want 122.5e3 (median of 100, 122.5, 200 ms)", got)
	}
	if got := lr.peakRSS(); got != 60 {
		t.Errorf("peakRSS = %v, want 60", got)
	}
}
