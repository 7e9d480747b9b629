package stats

import "math"

// SlidingWindow is a fixed-capacity FIFO of float64 samples with O(1)
// append and O(n) aggregate queries. It backs the bandwidth and
// vibration estimators, which repeatedly compute statistics over the
// most recent k samples.
//
// The zero value is not usable; construct with NewSlidingWindow.
type SlidingWindow struct {
	buf   []float64
	head  int // index of the oldest sample
	count int
}

// NewSlidingWindow returns a window holding at most capacity samples.
// capacity must be >= 1; smaller values are raised to 1.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity < 1 {
		capacity = 1
	}
	return &SlidingWindow{buf: make([]float64, capacity)}
}

// Push appends a sample, evicting the oldest one if the window is full.
func (w *SlidingWindow) Push(x float64) {
	if w.count < len(w.buf) {
		w.buf[(w.head+w.count)%len(w.buf)] = x
		w.count++
		return
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
}

// Len reports the number of samples currently held.
func (w *SlidingWindow) Len() int { return w.count }

// Cap reports the window capacity.
func (w *SlidingWindow) Cap() int { return len(w.buf) }

// Values returns the samples in insertion order (oldest first) as a
// fresh slice.
func (w *SlidingWindow) Values() []float64 {
	older, newer := w.runs()
	out := make([]float64, 0, w.count)
	return append(append(out, older...), newer...)
}

// Reset discards all samples.
func (w *SlidingWindow) Reset() {
	w.head = 0
	w.count = 0
}

// The aggregate queries walk the ring in insertion order directly
// instead of materialising Values(): the bandwidth estimators call
// them once per simulated segment, and the per-call copy was one of
// the session hot path's few remaining allocations.

// runs returns the held samples in insertion order as the ring's two
// contiguous runs: buf[head:] up to the wrap, then the wrapped prefix
// (empty until the ring wraps). Walking them in turn visits the same
// samples in the same order as indexing (head+i) mod cap, without a
// division per sample, so sums keep their order and their bits.
func (w *SlidingWindow) runs() (older, newer []float64) {
	end := w.head + w.count
	if end <= len(w.buf) {
		return w.buf[w.head:end], nil
	}
	return w.buf[w.head:], w.buf[:end-len(w.buf)]
}

// Mean returns the arithmetic mean of the held samples (0 if empty).
func (w *SlidingWindow) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	older, newer := w.runs()
	var sum float64
	for _, run := range [2][]float64{older, newer} {
		for _, x := range run {
			sum += x
		}
	}
	return sum / float64(w.count)
}

// HarmonicMean returns the harmonic mean of the held samples.
func (w *SlidingWindow) HarmonicMean() (float64, error) {
	if w.count == 0 {
		return 0, ErrEmpty
	}
	older, newer := w.runs()
	var sumInv float64
	for _, run := range [2][]float64{older, newer} {
		for _, x := range run {
			if x <= 0 {
				return 0, ErrNonPositive
			}
			sumInv += 1 / x
		}
	}
	return float64(w.count) / sumInv, nil
}

// RMS returns the root mean square of the held samples.
func (w *SlidingWindow) RMS() float64 {
	if w.count == 0 {
		return 0
	}
	older, newer := w.runs()
	var sum float64
	for _, run := range [2][]float64{older, newer} {
		for _, x := range run {
			sum += x * x
		}
	}
	return math.Sqrt(sum / float64(w.count))
}

// EWMA is an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]: larger alpha weighs recent samples more.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given smoothing factor. alpha is
// clamped to (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Push folds a new sample into the average.
func (e *EWMA) Push(x float64) {
	if !e.primed {
		e.value = x
		e.primed = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before the first sample.
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been pushed.
func (e *EWMA) Primed() bool { return e.primed }
