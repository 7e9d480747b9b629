package trace

import (
	"math"

	"ecavs/internal/netsim"
	"ecavs/internal/stats"
	"ecavs/internal/vibration"
)

// Compiled is an immutable once-per-trace compilation of the derived
// series every session query needs:
//
//   - prefix sums of the accelerometer magnitude and its square, so the
//     Eq. 5 windowed RMS deviation VibrationAt becomes an O(log n)
//     query via sqrt(E[m²] − E[m]²) instead of an O(window) two-pass
//     walk;
//   - the sample/point timestamp arrays laid out for binary search,
//     plus the mean accelerometer sample rate, from which a Cursor
//     guesses each window edge of the forward-moving per-segment
//     queries of a session replay (a few comparisons per query on a
//     uniformly sampled stream; see Cursor);
//   - the network step function, shared read-only so each session's
//     TraceLink replays it without a per-session copy (Link).
//
// Numerics: magnitudes are accumulated as deviations from the global
// mean magnitude (refMag) with compensated (Kahan) summation, so the
// windowed variance difference E[d²] − E[d]² does not catastrophically
// cancel against the ~Gravity² magnitude-square terms. The compiled
// path is NOT bit-identical to the reference vibration.Level two-pass
// computation; the documented contract (DESIGN.md §10) is agreement
// within 1e-9 m/s², pinned by property and fuzz tests against the
// reference implementation.
//
// A Compiled is stateless and safe for concurrent use by any number of
// sessions/shards; all mutable query state lives in per-session
// Cursors. The backing Trace must not be mutated after compilation.
type Compiled struct {
	tr *Trace

	// Accelerometer series: accelT[i] is sample i's timestamp;
	// dev[i] / dev2[i] are the Kahan-compensated prefix sums of the
	// first i magnitude deviations (mag − refMag) and their squares, so
	// both have len(accelT)+1 entries.
	accelT []float64
	dev    []float64
	dev2   []float64
	refMag float64
	// accelRate is the mean sample rate (samples per second over the
	// stream's span; 0 for a single sample or a zero span). Cursors use
	// it to guess where a window edge lands before galloping to it.
	accelRate float64

	// Network step function (zero-order hold), column-split from the
	// trace's points for cache-friendly binary search.
	netT    []float64
	sigDBm  []float64
	thrMBps []float64
}

// Compile validates t and builds its compiled form. Prefer
// (*Trace).Compiled, which memoizes the result on the trace.
func Compile(t *Trace) (*Compiled, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := len(t.Accel)
	c := &Compiled{
		tr:     t,
		accelT: make([]float64, n),
		dev:    make([]float64, n+1),
		dev2:   make([]float64, n+1),
	}

	// Pass 1: the global mean magnitude, the reference the deviations
	// are taken against. Any constant near the data works; the mean
	// keeps deviations centred so dev-prefix differences stay small.
	var acc stats.Kahan
	for _, s := range t.Accel {
		acc.Add(s.Magnitude())
	}
	c.refMag = acc.Sum() / float64(n)

	// Pass 2: compensated prefix sums of the deviations and their
	// squares. Snapshotting a running Kahan sum keeps every prefix —
	// and hence every windowed difference — accurate to a few ulps.
	var sumD, sumD2 stats.Kahan
	for i, s := range t.Accel {
		d := s.Magnitude() - c.refMag
		c.accelT[i] = s.TimeSec
		sumD.Add(d)
		sumD2.Add(d * d)
		c.dev[i+1] = sumD.Sum()
		c.dev2[i+1] = sumD2.Sum()
	}
	if span := c.accelT[n-1] - c.accelT[0]; span > 0 {
		c.accelRate = float64(n-1) / span
	}

	c.netT = make([]float64, len(t.Network))
	c.sigDBm = make([]float64, len(t.Network))
	c.thrMBps = make([]float64, len(t.Network))
	for i, p := range t.Network {
		c.netT[i] = p.TimeSec
		c.sigDBm[i] = p.SignalDBm
		c.thrMBps[i] = p.ThroughputMBps
	}
	return c, nil
}

// Trace returns the trace this compilation was built from.
func (c *Compiled) Trace() *Trace { return c.tr }

// searchGE returns the first index i with xs[i] >= v (len(xs) if none).
func searchGE(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchGT returns the first index i with xs[i] > v (len(xs) if none).
func searchGT(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// seek returns the first index k >= from with ts[k] >= v, or with
// ts[k] > v when strict, given that no index below from qualifies: the
// answer of searchGE or searchGT over the accelerometer timestamps.
//
// It guesses the index from the mean sample rate, anchored at
// ts[from], gallops from the guess (steps 1, 2, 4, ...) until the
// answer is bracketed, and binary-searches the bracket. The predicate
// is monotone over the sorted timestamps, so any bracket that holds the
// first qualifying index yields exactly that index: the guess decides
// only the cost, a few comparisons when it is off by a sample or two
// (uniform streams) and O(log d) when it is d samples off (irregular or
// gappy streams).
func (c *Compiled) seek(from int, v float64, strict bool) int {
	ts := c.accelT
	n := len(ts)
	if from >= n || past(ts[from], v, strict) {
		return from
	}
	g := n
	if f := float64(from) + (v-ts[from])*c.accelRate; f < float64(n) {
		g = from
		if f > float64(from) {
			g = int(f)
		}
	}
	lo, hi := from, n // the answer lies in [lo, hi]
	if g < n && !past(ts[g], v, strict) {
		lo = g + 1 // the edge lies beyond the guess: gallop forward
		for step := 1; lo < hi; step <<= 1 {
			k := lo + step - 1
			if k >= hi {
				break
			}
			if past(ts[k], v, strict) {
				hi = k
				break
			}
			lo = k + 1
		}
	} else {
		hi = g // the edge is at or before the guess: gallop backward
		for step := 1; lo < hi; step <<= 1 {
			k := hi - step
			if k < lo {
				break
			}
			if !past(ts[k], v, strict) {
				lo = k + 1
				break
			}
			hi = k
		}
	}
	if strict {
		return lo + searchGT(ts[lo:hi], v)
	}
	return lo + searchGE(ts[lo:hi], v)
}

// past reports whether timestamp x is at or past the edge v: x > v
// when strict, x >= v otherwise.
func past(x, v float64, strict bool) bool {
	if strict {
		return x > v
	}
	return x >= v
}

// levelFromPrefix evaluates Eq. 5 over the half-open sample index
// range [i, j) from the prefix sums: with d the deviations,
// Σ(m−mean_m)² = Σd² − n·mean_d², so the RMS deviation is
// sqrt(E[d²] − E[d]²). Matches the edge contract of vibration.Level:
// fewer than two samples yield 0.
func (c *Compiled) levelFromPrefix(i, j int) float64 {
	n := j - i
	if n < 2 {
		return 0
	}
	inv := 1 / float64(n)
	meanD := (c.dev[j] - c.dev[i]) * inv
	variance := (c.dev2[j]-c.dev2[i])*inv - meanD*meanD
	if variance <= 0 {
		// Rounding can push a near-constant window fractionally
		// negative; the true variance is non-negative by construction.
		return 0
	}
	return math.Sqrt(variance)
}

// VibrationAt returns the Eq. 5 vibration level over the window
// [tSec−windowSec, tSec], matching (*Trace).VibrationAt to within the
// 1e-9 tolerance contract (including its edge cases: non-positive
// windows default to vibration.DefaultWindowSec, and windows covering
// fewer than two samples — e.g. queries past the trace end — report
// 0). Stateless; sessions replaying monotone query times should prefer
// Cursor.VibrationAt.
func (c *Compiled) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	i := searchGE(c.accelT, tSec-windowSec)
	j := searchGT(c.accelT, tSec)
	return c.levelFromPrefix(i, j)
}

// netIdxAt returns the step-function index active at tSec: the last
// point with time <= tSec, clamped to the first point before the trace
// starts (the same zero-order hold netsim.TraceLink applies).
func (c *Compiled) netIdxAt(tSec float64) int {
	idx := searchGT(c.netT, tSec) - 1
	if idx < 0 {
		return 0
	}
	return idx
}

// SignalAt returns the recorded signal strength active at tSec.
func (c *Compiled) SignalAt(tSec float64) float64 {
	return c.sigDBm[c.netIdxAt(tSec)]
}

// ThroughputMBpsAt returns the recorded achievable rate active at
// tSec.
func (c *Compiled) ThroughputMBpsAt(tSec float64) float64 {
	return c.thrMBps[c.netIdxAt(tSec)]
}

// Link returns a fresh replayable link over the trace's network
// points, sharing the validated point slice instead of copying it
// (the copy was one of the per-session allocations the compiled
// substrate exists to amortize).
func (c *Compiled) Link() *netsim.TraceLink {
	l, err := netsim.ReplayTraceLink(c.tr.Network)
	if err != nil {
		// Unreachable: Compile validated the trace non-empty.
		panic(err)
	}
	return l
}

// Cursor returns a per-session query cursor over the compilation. A
// Cursor remembers the last window's edge indices. When a query moves
// an edge forward, the cursor guesses the new edge from the compiled
// sample rate and gallops from the guess to the exact edge (seek), so
// on a uniformly sampled stream a query costs a few comparisons however
// far time advanced since the last one (a session's decisions are
// about 2 s, a hundred 50 Hz samples, apart); when an edge moves
// backwards it falls back to a binary search. Either way the edges, and
// hence the levels, are exactly those of Compiled.VibrationAt. The
// network step index advances by a short forward scan (points are
// seconds apart). Cursors are cheap, hold all mutable state (the shared
// Compiled has none), and must not be shared between goroutines.
func (c *Compiled) Cursor() Cursor { return Cursor{c: c} }

// Cursor is a stateful view over a Compiled trace optimized for
// non-decreasing query times. The zero value is unusable; obtain one
// from (*Compiled).Cursor.
type Cursor struct {
	c    *Compiled
	lo   int // first sample index of the last vibration window
	hi   int // one past the last sample index of the last window
	nidx int // last network step index
}

// VibrationAt is Compiled.VibrationAt through the cached edges: the
// same sample indices, hence the same bits.
func (cu *Cursor) VibrationAt(tSec, windowSec float64) float64 {
	if windowSec <= 0 {
		windowSec = vibration.DefaultWindowSec
	}
	ts := cu.c.accelT
	loT := tSec - windowSec

	// Each edge either stays (one comparison), moves forward past the
	// cached sample (seek), or moves backwards (binary search).
	i := cu.lo
	if i > 0 && ts[i-1] >= loT {
		i = searchGE(ts, loT) // window start moved backwards
	} else if i < len(ts) && ts[i] < loT {
		i = cu.c.seek(i+1, loT, false)
	}
	j := cu.hi
	if j > 0 && ts[j-1] > tSec {
		j = searchGT(ts, tSec) // query time moved backwards
	} else if j < len(ts) && ts[j] <= tSec {
		j = cu.c.seek(j+1, tSec, true)
	}
	cu.lo, cu.hi = i, j
	return cu.c.levelFromPrefix(i, j)
}

// SignalAt is Compiled.SignalAt with the cached-index fast path.
func (cu *Cursor) SignalAt(tSec float64) float64 {
	return cu.c.sigDBm[cu.netIdx(tSec)]
}

// ThroughputMBpsAt is Compiled.ThroughputMBpsAt with the cached-index
// fast path.
func (cu *Cursor) ThroughputMBpsAt(tSec float64) float64 {
	return cu.c.thrMBps[cu.netIdx(tSec)]
}

func (cu *Cursor) netIdx(tSec float64) int {
	ts := cu.c.netT
	i := cu.nidx
	if i >= len(ts) || ts[i] > tSec {
		i = cu.c.netIdxAt(tSec) // moved backwards
	} else {
		for i+1 < len(ts) && ts[i+1] <= tSec {
			i++
		}
	}
	cu.nidx = i
	return i
}
