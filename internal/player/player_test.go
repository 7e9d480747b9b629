package player

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v, want ErrBadThreshold", err)
	}
	if _, err := New(-5); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("err = %v, want ErrBadThreshold", err)
	}
	p, err := New(DefaultBufferThresholdSec)
	if err != nil {
		t.Fatal(err)
	}
	if p.ThresholdSec() != 30 {
		t.Errorf("ThresholdSec = %v, want 30", p.ThresholdSec())
	}
}

func TestStartupAccounting(t *testing.T) {
	p, _ := New(30)
	if p.Started() {
		t.Error("fresh player claims started")
	}
	played, stall := p.Drain(3)
	if played != nil || stall != 0 {
		t.Errorf("pre-start drain = %v, %v; want nil, 0", played, stall)
	}
	if p.StartupSec() != 3 {
		t.Errorf("StartupSec = %v, want 3", p.StartupSec())
	}
	p.OnSegment(2, 1.5)
	if !p.Started() {
		t.Error("player did not start after first segment")
	}
	// Startup time does not count as stall.
	if p.StallSec() != 0 {
		t.Errorf("StallSec = %v, want 0", p.StallSec())
	}
}

func TestDrainAcrossSegments(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 3.0)
	played, stall := p.Drain(3)
	if stall != 0 {
		t.Errorf("stall = %v, want 0", stall)
	}
	if len(played) != 2 {
		t.Fatalf("played stretches = %d, want 2", len(played))
	}
	if played[0].BitrateMbps != 1.5 || !almostEqual(played[0].DurationSec, 2, 1e-9) {
		t.Errorf("stretch 0 = %+v, want 2 s @ 1.5", played[0])
	}
	if played[1].BitrateMbps != 3.0 || !almostEqual(played[1].DurationSec, 1, 1e-9) {
		t.Errorf("stretch 1 = %+v, want 1 s @ 3.0", played[1])
	}
	if !almostEqual(p.BufferSec(), 1, 1e-9) {
		t.Errorf("BufferSec = %v, want 1", p.BufferSec())
	}
}

func TestDrainMergesEqualBitrates(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 1.5)
	played, _ := p.Drain(4)
	if len(played) != 1 {
		t.Fatalf("played stretches = %d, want 1 (merged)", len(played))
	}
	if !almostEqual(played[0].DurationSec, 4, 1e-9) {
		t.Errorf("merged duration = %v, want 4", played[0].DurationSec)
	}
}

func TestStallWhenBufferEmpties(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	_, stall := p.Drain(5)
	if !almostEqual(stall, 3, 1e-9) {
		t.Errorf("stall = %v, want 3", stall)
	}
	if !almostEqual(p.StallSec(), 3, 1e-9) {
		t.Errorf("StallSec = %v, want 3", p.StallSec())
	}
	if !almostEqual(p.PlayedSec(), 2, 1e-9) {
		t.Errorf("PlayedSec = %v, want 2", p.PlayedSec())
	}
}

func TestShouldDownloadThreshold(t *testing.T) {
	p, _ := New(4)
	if !p.ShouldDownload() {
		t.Error("empty buffer should download")
	}
	p.OnSegment(2, 1)
	if !p.ShouldDownload() {
		t.Error("buffer below threshold should download")
	}
	p.OnSegment(2, 1)
	if p.ShouldDownload() {
		t.Error("buffer at threshold should pause downloads")
	}
	p.Drain(1)
	if !p.ShouldDownload() {
		t.Error("buffer drained below threshold should resume")
	}
}

func TestOnSegmentIgnoresNonPositive(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(0, 1)
	p.OnSegment(-2, 1)
	if p.Started() || p.BufferSec() != 0 {
		t.Error("non-positive segments were enqueued")
	}
}

func TestDrainNonPositive(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1)
	played, stall := p.Drain(0)
	if played != nil || stall != 0 {
		t.Error("Drain(0) did something")
	}
	played, stall = p.Drain(-1)
	if played != nil || stall != 0 {
		t.Error("Drain(-1) did something")
	}
}

func TestFinishRemaining(t *testing.T) {
	p, _ := New(30)
	p.OnSegment(2, 1.5)
	p.OnSegment(2, 3.0)
	p.Drain(1)
	played := p.FinishRemaining()
	var total float64
	for _, st := range played {
		total += st.DurationSec
	}
	if !almostEqual(total, 3, 1e-6) {
		t.Errorf("FinishRemaining played %v s, want 3", total)
	}
	if p.BufferSec() > 1e-9 {
		t.Errorf("buffer not empty: %v", p.BufferSec())
	}
	if p.StallSec() != 0 {
		t.Errorf("FinishRemaining registered stall: %v", p.StallSec())
	}
}

// Conservation: enqueued duration = played + buffered, and stall only
// accrues when the buffer is empty.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(opsRaw uint8) bool {
		p, err := New(30)
		if err != nil {
			return false
		}
		ops := int(opsRaw%40) + 1
		var enqueued float64
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.5 {
				d := rng.Float64()*3 + 0.1
				enqueued += d
				p.OnSegment(d, 1.5)
			} else {
				p.Drain(rng.Float64() * 4)
			}
		}
		return almostEqual(enqueued, p.PlayedSec()+p.BufferSec(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQueueCapacityBounded guards the ring-buffer fix: a steady-state
// session (enqueue one segment, drain one segment, thousands of times)
// must not grow the queue's backing array with the number of segments
// ever enqueued. The old p.queue = p.queue[1:] implementation retained
// every consumed entry's slot and failed this test.
func TestQueueCapacityBounded(t *testing.T) {
	p, err := New(30)
	if err != nil {
		t.Fatal(err)
	}
	const (
		segments = 20_000
		depth    = 8 // live queue depth held during the run
	)
	for i := 0; i < depth; i++ {
		p.OnSegment(2, 1.5)
	}
	for i := 0; i < segments; i++ {
		p.OnSegment(2, float64(i%3)+1)
		if _, stall := p.Drain(2); stall != 0 {
			t.Fatalf("unexpected stall at segment %d", i)
		}
	}
	if got := p.QueueCap(); got > 4*depth+16 {
		t.Errorf("queue capacity grew to %d for a depth-%d session; want bounded", got, depth)
	}
	if want := float64(depth * 2); math.Abs(p.BufferSec()-want) > 1e-6 {
		t.Errorf("BufferSec = %v, want %v", p.BufferSec(), want)
	}
}

// TestDrainIntoMatchesDrain pins the callback API to the allocating
// one: same stretches, same stall, same player state.
func TestDrainIntoMatchesDrain(t *testing.T) {
	build := func() *Player {
		p, err := New(30)
		if err != nil {
			t.Fatal(err)
		}
		p.OnSegment(2, 1)
		p.OnSegment(2, 1)
		p.OnSegment(2, 3)
		p.OnSegment(1, 2)
		return p
	}
	a, b := build(), build()
	for _, dt := range []float64{0.5, 3.2, 1.1, 9} {
		played, stallA := a.Drain(dt)
		var viaEmit []Played
		stallB := b.DrainInto(dt, func(st Played) { viaEmit = append(viaEmit, st) })
		if stallA != stallB {
			t.Fatalf("stall mismatch at dt=%v: %v vs %v", dt, stallA, stallB)
		}
		if len(played) != len(viaEmit) {
			t.Fatalf("stretch count mismatch at dt=%v: %v vs %v", dt, played, viaEmit)
		}
		for i := range played {
			if played[i] != viaEmit[i] {
				t.Fatalf("stretch %d mismatch at dt=%v: %v vs %v", i, dt, played[i], viaEmit[i])
			}
		}
	}
	if a.PlayedSec() != b.PlayedSec() || a.StallSec() != b.StallSec() || a.BufferSec() != b.BufferSec() {
		t.Errorf("diverged state: played %v/%v stall %v/%v buffer %v/%v",
			a.PlayedSec(), b.PlayedSec(), a.StallSec(), b.StallSec(), a.BufferSec(), b.BufferSec())
	}
}

// queueSum is BufferSec's left-to-right sum without its re-sync of the
// running estimate, so the property test below can let the estimate
// drift the way a pacing loop does.
func queueSum(p *Player) float64 {
	var sum float64
	for _, q := range p.queue[p.head:] {
		sum += q.DurationSec
	}
	return sum
}

// BufferCmp must answer exactly as the summed buffer does. Random
// enqueue, drain and play-out sequences, with and without BufferSec
// re-syncs, probe x at the exact sum and at ±1e-13, ±1e-9 and ±0.05
// from it, plus the pacing threshold. Each probe runs on a copy of the
// player, so a probe that falls back to the exact sum does not re-sync
// the estimate the next operations keep drifting.
func TestBufferCmpMatchesBufferSec(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	offsets := []float64{0, 1e-13, -1e-13, 1e-9, -1e-9, 0.05, -0.05}
	var maxDrift float64
	for trial := 0; trial < 40; trial++ {
		threshold := 4 + rng.Float64()*40
		p, err := New(threshold)
		if err != nil {
			t.Fatal(err)
		}
		resyncEvery := []int{1, 7, 1 << 30}[trial%3]
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				p.OnSegment([]float64{2, 4, 1 + rng.Float64()*3, 1e-3}[rng.Intn(4)], float64(1+rng.Intn(3)))
			case r < 15:
				p.DrainInto(0.1, nil) // an idle pacing step
			case r < 17:
				p.DrainInto(rng.Float64()*3, nil)
			case r < 18:
				if p.head < len(p.queue) {
					p.DrainInto(p.queue[p.head].DurationSec, nil) // exactly the head segment
				}
			case r < 19:
				p.DrainInto(queueSum(p)*rng.Float64(), nil)
			default:
				if rng.Intn(10) == 0 {
					p.FinishRemaining()
				}
			}
			if op%resyncEvery == 0 {
				p.BufferSec()
			}
			exact := queueSum(p)
			maxDrift = max(maxDrift, math.Abs(p.bufEst-exact))
			for _, off := range offsets {
				x := exact + off
				probe := *p
				if got, want := probe.BufferCmp(x), cmp.Compare(exact, x); got != want {
					t.Fatalf("trial %d op %d: BufferCmp(%v) = %d, exact sum %v compares %d (estimate %v)",
						trial, op, x, got, exact, want, p.bufEst)
				}
			}
			probe := *p
			if got, want := probe.ShouldDownload(), exact < threshold; got != want {
				t.Fatalf("trial %d op %d: ShouldDownload = %v with buffer %v, threshold %v", trial, op, got, exact, threshold)
			}
		}
		if got, want := p.BufferCmp(threshold), cmp.Compare(p.BufferSec(), threshold); got != want {
			t.Fatalf("trial %d: BufferCmp(threshold) = %d, want %d", trial, got, want)
		}
	}
	if maxDrift > 1e-11 {
		t.Errorf("estimate drifted %g s from the exact sum; the tolerance argument assumes ~1e-13", maxDrift)
	}
	t.Logf("largest estimate drift from the exact sum: %g s", maxDrift)
}
