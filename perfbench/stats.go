package main

import "ecavs/internal/stats"

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over 300 samples rests on three values, so the
// tail is pulled down to the highest percentile the sample supports.
const minBeyond = 10

// supportedQuantile returns the highest quantile at most want that
// leaves at least minBeyond of n samples above it, never below the
// median. Zero samples support nothing.
func supportedQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0
	}
	q := want
	if lim := float64(n-minBeyond) / float64(n); q > lim {
		q = lim
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// percentile is stats.Percentile at quantile q, reading 0 for an empty
// sample so a layer a workload does not touch reports 0.
func percentile(xs []float64, q float64) float64 {
	v, _ := stats.Percentile(xs, 100*q)
	return v
}

// summary is an exact percentile summary of one sample. Tail is the
// value at TailQ, the highest quantile up to the requested one that
// keeps minBeyond samples above it.
type summary struct {
	N       int
	Windows int
	P50     float64
	Tail    float64
	TailQ   float64
}

// summarize summarizes xs with a tail at wantTail.
func summarize(xs []float64, wantTail float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q := supportedQuantile(len(xs), wantTail)
	return summary{N: len(xs), Windows: 1, P50: percentile(xs, 0.5), Tail: percentile(xs, q), TailQ: q}
}

// splitmix is the repo's deterministic generator idiom; every input the
// benchmark derives from --seed comes from one of these streams.
type splitmix struct{ state uint64 }

func newSplitmix(seed int64, stream uint64) *splitmix {
	return &splitmix{state: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pick draws an index with probability proportional to weights.
func (r *splitmix) pick(weights []float64, total float64) int {
	u := r.float() * total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// windowed summarizes a sample split into consecutive windows: P50 and
// Tail are the medians across windows of each window's exact
// percentiles, so a stall confined to one window moves one of the
// values the median is taken over instead of the reported tail itself.
// N counts every sample; TailQ is the lowest tail quantile a window
// supported.
func windowed(groups [][]float64, wantTail float64) summary {
	var p50s, tails []float64
	s := summary{TailQ: 1}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		w := summarize(g, wantTail)
		p50s = append(p50s, w.P50)
		tails = append(tails, w.Tail)
		s.N += w.N
		s.TailQ = min(s.TailQ, w.TailQ)
		s.Windows++
	}
	if s.Windows == 0 {
		return summary{}
	}
	s.P50, s.Tail = percentile(p50s, 0.5), percentile(tails, 0.5)
	return s
}

// byWindow groups vals by the width-long window, counted from t0, that
// their timestamps fall in. Windows tile [t0, t1); a last window
// shorter than half a width joins the one before it.
func byWindow(at []int64, vals []float64, t0, t1, width int64) [][]float64 {
	n := max(1, int((t1-t0+width/2)/width))
	groups := make([][]float64, n)
	for i, a := range at {
		k := min(max(int((a-t0)/width), 0), n-1)
		groups[k] = append(groups[k], vals[i])
	}
	return groups
}
