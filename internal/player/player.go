// Package player models the DASH client's playback buffer: startup,
// real-time draining across queued segments, stall (rebuffer)
// accounting, and the buffer-threshold download pacing of the paper's
// setup (downloads pause once beta = 30 s of content is buffered).
package player

import (
	"cmp"
	"errors"
)

// DefaultBufferThresholdSec is the paper's buffer threshold beta.
const DefaultBufferThresholdSec = 30.0

// Queued is one buffered segment awaiting playback.
type Queued struct {
	// DurationSec is the segment's remaining playback time.
	DurationSec float64
	// BitrateMbps is the segment's encoded bitrate (used to attribute
	// decode power while it plays).
	BitrateMbps float64
}

// Played reports a contiguous stretch of playback at one bitrate,
// returned by Drain so the caller can integrate decode power.
type Played struct {
	// DurationSec is how long this stretch played.
	DurationSec float64
	// BitrateMbps is the bitrate that was decoding.
	BitrateMbps float64
}

// Player is the client buffer. The zero value is not usable; construct
// with New.
//
// The queue is a compacting ring: consumed segments advance a head
// index instead of re-slicing the front off (which would pin the
// consumed prefix's backing array for the whole session), and the
// live tail is periodically copied back to the array start so the
// backing capacity stays bounded by the deepest simultaneous queue,
// not by the number of segments ever enqueued.
//
// The player also keeps a running estimate of the queue total, so the
// per-step pacing test (BufferCmp, ShouldDownload) need not sum the
// queue. The estimate moves with every enqueued segment, consumed
// slice and dropped sub-1e-12 leftover, and is re-synced to the exact
// sum whenever BufferSec computes it or the queue empties. Between
// re-syncs it differs from the exact left-to-right sum only by
// rounding, about 1e-13 s for a 30 s buffer. BufferCmp answers from it
// only when it lies more than a tolerance (1e-9 of the buffer, at
// least 1e-9 s, far above that rounding) from the compared value, so
// its answers are always those of the exact sum.
type Player struct {
	thresholdSec float64
	queue        []Queued
	head         int
	started      bool

	bufEst    float64 // running estimate of BufferSec
	tol       float64 // BufferCmp's tolerance for the estimate
	roundings int     // bound on the roundings between estimate and sum

	playedSec  float64
	stallSec   float64
	startupSec float64
}

// ErrBadThreshold is returned for non-positive buffer thresholds.
var ErrBadThreshold = errors.New("player: buffer threshold must be positive")

// New returns a player that pauses downloads once the buffer exceeds
// thresholdSec.
func New(thresholdSec float64) (*Player, error) {
	if thresholdSec <= 0 {
		return nil, ErrBadThreshold
	}
	p := &Player{thresholdSec: thresholdSec}
	p.resync(0)
	return p, nil
}

// BufferSec returns the buffered playback time: the left-to-right sum
// of the queued segments' remaining durations.
func (p *Player) BufferSec() float64 {
	var sum float64
	for _, q := range p.queue[p.head:] {
		sum += q.DurationSec
	}
	p.resync(sum)
	return sum
}

// resync sets the estimate to sum, the queue's exact total.
func (p *Player) resync(sum float64) {
	p.bufEst = sum
	p.tol = bufferTol * max(1, sum)
	p.roundings = 2 * (len(p.queue) - p.head)
}

// Why BufferCmp is exact. Let P be the largest estimate since the last
// re-sync (tol is bufferTol·max(1, P)) and u = 2⁻⁵³. Both the estimate
// and the exact left-to-right sum approximate the true total of the
// stored durations, and every rounding on the way is at most u·P: one
// per term of either sum, one per estimate update, and one per consumed
// slice, which shortens a stored duration. roundings counts them: two
// per segment queued at the re-sync (its terms in the sum re-synced to
// and in a later sum), two per enqueued segment (update and term), two
// per slice and one per dropped leftover. So the estimate and the exact
// sum differ by at most roundings·u·P, which while roundings ≤
// maxRoundings is below 2.4e-10·P and under tol. Where the estimate
// lies more than tol from x, the exact sum lies on the same side;
// otherwise, and past maxRoundings, BufferCmp takes the exact sum.
const (
	bufferTol    = 1e-9
	maxRoundings = 1 << 21
)

// BufferCmp compares the buffered playback time with x and returns
// cmp.Compare(p.BufferSec(), x): -1, 0 or +1. It answers from the
// running estimate when that lies clearly to one side of x, and sums
// the queue only when it lies within the tolerance, so a pacing loop
// polling the threshold costs O(1) per step with exact answers.
func (p *Player) BufferCmp(x float64) int {
	if p.roundings <= maxRoundings {
		if p.bufEst > x+p.tol {
			return 1
		}
		if p.bufEst < x-p.tol {
			return -1
		}
	}
	return cmp.Compare(p.BufferSec(), x)
}

// QueueCap reports the queue's backing-array capacity (test hook for
// the bounded-growth guarantee).
func (p *Player) QueueCap() int { return cap(p.queue) }

// ThresholdSec returns the download-pacing threshold.
func (p *Player) ThresholdSec() float64 { return p.thresholdSec }

// ShouldDownload reports whether the next segment download should
// start now (buffer below the threshold).
func (p *Player) ShouldDownload() bool { return p.BufferCmp(p.thresholdSec) < 0 }

// Started reports whether playback has begun (first segment arrived).
func (p *Player) Started() bool { return p.started }

// OnSegment enqueues a downloaded segment and starts playback if this
// is the first one. Non-positive durations are ignored.
func (p *Player) OnSegment(durationSec, bitrateMbps float64) {
	if durationSec <= 0 {
		return
	}
	p.queue = append(p.queue, Queued{DurationSec: durationSec, BitrateMbps: bitrateMbps})
	p.bufEst += durationSec
	p.tol = max(p.tol, bufferTol*p.bufEst)
	p.roundings += 2
	p.started = true
}

// Drain advances playback by dt wall-clock seconds. It returns the
// playback stretches consumed (for decode-power attribution) and the
// stall time within dt. Time before the first segment arrives counts
// as startup, not stall.
//
// Drain allocates the returned slice; hot loops should use DrainInto.
func (p *Player) Drain(dt float64) (played []Played, stallSec float64) {
	stallSec = p.DrainInto(dt, func(st Played) {
		played = append(played, st)
	})
	return played, stallSec
}

// DrainInto is Drain without the allocation: each maximal contiguous
// stretch of playback at one bitrate is passed to emit (which may be
// nil) in playback order. The stretches and the returned stall are
// identical to Drain's.
func (p *Player) DrainInto(dt float64, emit func(Played)) (stallSec float64) {
	if dt <= 0 {
		return 0
	}
	if !p.started {
		p.startupSec += dt
		return 0
	}
	remaining := dt
	var cur Played
	haveCur := false
	for remaining > 1e-12 && p.head < len(p.queue) {
		q := &p.queue[p.head]
		consume := q.DurationSec
		if consume > remaining {
			consume = remaining
		}
		q.DurationSec -= consume
		p.bufEst -= consume
		p.roundings += 2
		remaining -= consume
		p.playedSec += consume
		if haveCur && cur.BitrateMbps == q.BitrateMbps {
			cur.DurationSec += consume
		} else {
			if haveCur && emit != nil {
				emit(cur)
			}
			cur = Played{DurationSec: consume, BitrateMbps: q.BitrateMbps}
			haveCur = true
		}
		if q.DurationSec <= 1e-12 {
			p.pop()
		}
	}
	if haveCur && emit != nil {
		emit(cur)
	}
	if remaining > 1e-12 {
		p.stallSec += remaining
		stallSec = remaining
	}
	return stallSec
}

// pop consumes the head segment, dropping its sub-1e-12 leftover from
// the estimate, and compacts the ring so the backing array never grows
// past roughly twice the deepest live queue. An emptied queue re-syncs
// the estimate to exactly 0.
func (p *Player) pop() {
	p.bufEst -= p.queue[p.head].DurationSec
	p.roundings++
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
		p.resync(0)
		return
	}
	if p.head >= 16 && p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		p.queue = p.queue[:n]
		p.head = 0
	}
}

// FinishRemaining plays out whatever is buffered and returns the
// stretches, leaving the buffer empty. Used after the last download.
func (p *Player) FinishRemaining() []Played {
	var played []Played
	p.FinishRemainingInto(func(st Played) { played = append(played, st) })
	return played
}

// FinishRemainingInto is FinishRemaining without the allocation: the
// stretches are passed to emit (which may be nil) in playback order.
func (p *Player) FinishRemainingInto(emit func(Played)) {
	p.DrainInto(p.BufferSec()+1e-9, emit)
	// The epsilon overshoot must not register as a stall.
	if p.stallSec > 0 && p.stallSec < 1e-6 {
		p.stallSec = 0
	}
}

// PlayedSec returns total playback time so far.
func (p *Player) PlayedSec() float64 { return p.playedSec }

// StallSec returns total mid-stream stall time so far.
func (p *Player) StallSec() float64 { return p.stallSec }

// StartupSec returns time spent waiting for the first segment.
func (p *Player) StartupSec() float64 { return p.startupSec }
