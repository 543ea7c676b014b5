package main

import (
	"fmt"
	"sort"
)

// tailMinBeyond is how many samples must lie above the reported tail
// value. Fewer than that and the "percentile" is a single outlier.
const tailMinBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample set that still has
// tailMinBeyond samples above it.
type tail struct {
	Value   float64 // the sample at that rank
	Pct     float64 // its percentile: the share of samples at or below it, ×100
	Samples int     // the sample count the percentile is taken over
}

func (t tail) String() string {
	return fmt.Sprintf("p%.3f=%.1f (n=%d)", t.Pct, t.Value, t.Samples)
}

// tailOf picks the sample with exactly tailMinBeyond samples above it in
// sorted order. With too few samples for that, it returns the maximum and
// reports it as p100, so a short run never invents a deeper percentile.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n == 0 {
		return tail{}, fmt.Errorf("tail of an empty sample set")
	}
	s := sortedCopy(xs)
	if n <= tailMinBeyond {
		return tail{Value: s[n-1], Pct: 100, Samples: n}, nil
	}
	i := n - 1 - tailMinBeyond
	return tail{Value: s[i], Pct: 100 * float64(n-tailMinBeyond) / float64(n), Samples: n}, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
