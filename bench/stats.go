package main

import (
	"sort"
	"time"

	"sgxp2p/internal/stats"
)

// percentile is stats.Percentile (nearest rank) on a 0..1 scale.
func percentile(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, 100*p) // the only error is an empty sample, which reads 0
	return v
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// segmentRate splits the per-call wall times into k contiguous segments of
// equal call count (a remainder is dropped from the tail) and returns the
// median segment's throughput in ops per second. A stall in one fifth of
// the window therefore moves one segment, not the reported rate. With
// fewer than k calls every call is its own segment.
func segmentRate(calls []time.Duration, opsPerCall, k int) float64 {
	if len(calls) == 0 {
		return 0
	}
	per := len(calls) / k
	if per == 0 {
		per, k = 1, len(calls)
	}
	rates := make([]float64, k)
	for s := 0; s < k; s++ {
		var wall time.Duration
		for _, c := range calls[s*per : (s+1)*per] {
			wall += c
		}
		rates[s] = float64(per*opsPerCall) / wall.Seconds()
	}
	return median(rates)
}

// fastQuarterMean returns the mean of the fastest quarter of the samples
// (at least one). The host is shared: other tenants' bursts add time to
// some calls and never remove any, so the fast end of the distribution is
// what the program costs and the rest is what the neighbours cost. On this
// box a busy spell moves the median call time of erb_serial by 20-30 %
// and this figure by 6 %.
func fastQuarterMean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[:max(1, len(s)/4)]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// medianSeconds returns the median of the durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts per-call durations to milliseconds.
func millis(calls []time.Duration) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = ms(c)
	}
	return out
}
