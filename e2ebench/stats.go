package main

import "sort"

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the nearest-rank index of whole percentile p among n
// sorted samples: ceil(p·n/100) − 1, in integers so that p·n/100 never
// rounds up past an exact rank.
func rankIndex(p, n int) int {
	idx := (p*n+99)/100 - 1
	return min(max(idx, 0), n-1)
}

// tail applies the benchmark's percentile rule: a timing is reported as
// its median plus the highest whole percentile that still has at least
// ten samples beyond it. With fewer than twenty samples that percentile
// would fall below the median, so the maximum stands in and p is 100.
// No samples give (0, 0).
func tail(xs []float64) (p int, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	for p = 99; p >= 50; p-- {
		if idx := rankIndex(p, n); n-1-idx >= 10 {
			return p, s[idx]
		}
	}
	return 100, s[n-1]
}

// failedFrac is failed operations over attempted ones, where an
// operation is one scenario row of a sweep. A run that attempted nothing
// has failed entirely.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
