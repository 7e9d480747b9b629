// Package multisim co-simulates several DASH clients sharing one
// bottleneck link — the setting FESTIVE (the paper's reference [2]) was
// designed for: when players adapt independently on a shared cell,
// throughput-greedy policies oscillate and starve each other, and the
// interesting metrics are fairness (Jain's index across players) and
// stability (switch counts) rather than a single session's energy.
//
// The engine advances a global clock in fixed steps; at each step the
// bottleneck capacity is split evenly among the clients that are
// actively downloading (processor sharing, the standard TCP-fairness
// idealisation).
package multisim

import (
	"errors"
	"fmt"

	"ecavs/internal/abr"
	"ecavs/internal/dash"
	"ecavs/internal/player"
)

// Client is one player in the shared-link simulation.
type Client struct {
	// Name labels the client in results.
	Name string
	// Manifest is the video it streams.
	Manifest *dash.Manifest
	// Algorithm adapts its bitrate.
	Algorithm abr.Algorithm
	// StartOffsetSec delays the client's join (staggered arrivals).
	StartOffsetSec float64
}

// Config describes the shared-link scenario.
type Config struct {
	// Clients are the competing players.
	Clients []Client
	// CapacityMbps is the bottleneck capacity, split evenly among
	// active downloaders.
	CapacityMbps float64
	// BufferThresholdSec paces each client's downloads (default 30 s).
	BufferThresholdSec float64
	// StepSec is the engine step (default 0.1 s).
	StepSec float64
	// MaxSimSec bounds the simulation (default: generous multiple of
	// the longest video).
	MaxSimSec float64
}

// ClientResult summarises one client's session.
type ClientResult struct {
	// Name echoes the client label.
	Name string
	// MeanBitrateMbps is the duration-weighted mean selected bitrate.
	MeanBitrateMbps float64
	// Switches counts rung changes.
	Switches int
	// RebufferSec is total stalling.
	RebufferSec float64
	// DownloadedMB is the payload fetched.
	DownloadedMB float64
	// Rungs logs the per-segment choices.
	Rungs []int
}

// Result is the scenario outcome.
type Result struct {
	// Clients holds per-player results, in Config order.
	Clients []ClientResult
	// JainFairness is Jain's index over the clients' mean bitrates
	// (1 = perfectly fair).
	JainFairness float64
	// DurationSec is the simulated span.
	DurationSec float64
}

// Config validation errors.
var (
	ErrNoClients   = errors.New("multisim: no clients")
	ErrBadCapacity = errors.New("multisim: capacity must be positive")
)

// clientState is the engine's per-client bookkeeping.
type clientState struct {
	cfg    Client
	pl     *player.Player
	seg    int  // next segment to request
	done   bool // all segments fetched
	joined bool

	// in-flight download
	downloading bool
	rung        int
	remainMB    float64
	sizeMB      float64
	startedAt   float64
	segDur      float64

	prevRung int
	result   ClientResult
	brSum    float64
	durSum   float64
}

// Run executes the scenario.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Clients) == 0 {
		return nil, ErrNoClients
	}
	if cfg.CapacityMbps <= 0 {
		return nil, ErrBadCapacity
	}
	threshold := cfg.BufferThresholdSec
	if threshold <= 0 {
		threshold = player.DefaultBufferThresholdSec
	}
	step := cfg.StepSec
	if step <= 0 {
		step = 0.1
	}
	var longest float64
	states := make([]*clientState, 0, len(cfg.Clients))
	for i, c := range cfg.Clients {
		if c.Manifest == nil || c.Algorithm == nil {
			return nil, fmt.Errorf("multisim: client %d missing manifest or algorithm", i)
		}
		pl, err := player.New(threshold)
		if err != nil {
			return nil, err
		}
		c.Algorithm.Reset()
		if d := c.Manifest.Video().DurationSec + c.StartOffsetSec; d > longest {
			longest = d
		}
		states = append(states, &clientState{
			cfg:      c,
			pl:       pl,
			prevRung: -1,
			result:   ClientResult{Name: c.Name},
		})
	}
	maxSim := cfg.MaxSimSec
	if maxSim <= 0 {
		maxSim = longest*4 + 120
	}

	now := 0.0
	for now < maxSim {
		allDone := true
		// Count active downloaders for the processor-sharing split.
		active := 0
		for _, st := range states {
			if st.downloading {
				active++
			}
		}
		shareMBps := cfg.CapacityMbps / 8
		if active > 0 {
			shareMBps = cfg.CapacityMbps / 8 / float64(active)
		}

		for _, st := range states {
			if !st.joined {
				if now >= st.cfg.StartOffsetSec {
					st.joined = true
				} else {
					allDone = false
					continue
				}
			}
			if st.done && st.pl.BufferCmp(1e-9) <= 0 {
				continue // session fully played out
			}
			// Playback drains in real time; time past the video's end
			// is not a stall.
			_, stall := st.pl.Drain(step)
			if !st.done {
				st.result.RebufferSec += stall
			}
			if st.done {
				allDone = false
				continue
			}
			allDone = false

			if st.downloading {
				st.remainMB -= shareMBps * step
				if st.remainMB <= 0 {
					st.downloading = false
					st.pl.OnSegment(st.segDur, mustBitrate(st.cfg.Manifest, st.rung))
					elapsed := now + step - st.startedAt
					if elapsed <= 0 {
						elapsed = step
					}
					st.cfg.Algorithm.ObserveDownload(st.sizeMB * 8 / elapsed)
					st.result.DownloadedMB += st.sizeMB
					st.result.Rungs = append(st.result.Rungs, st.rung)
					st.brSum += mustBitrate(st.cfg.Manifest, st.rung) * st.segDur
					st.durSum += st.segDur
					if st.prevRung >= 0 && st.rung != st.prevRung {
						st.result.Switches++
					}
					st.prevRung = st.rung
					st.seg++
					if st.seg >= st.cfg.Manifest.SegmentCount() {
						st.done = true
					}
				}
				continue
			}

			// Start the next download when pacing allows.
			if !st.pl.ShouldDownload() {
				continue
			}
			if err := startDownload(st, threshold, now); err != nil {
				return nil, err
			}
		}
		if allDone {
			break
		}
		now += step
	}

	res := &Result{DurationSec: now}
	bitrates := make([]float64, 0, len(states))
	for _, st := range states {
		if st.durSum > 0 {
			st.result.MeanBitrateMbps = st.brSum / st.durSum
		}
		bitrates = append(bitrates, st.result.MeanBitrateMbps)
		res.Clients = append(res.Clients, st.result)
	}
	res.JainFairness = jain(bitrates)
	return res, nil
}

// startDownload asks the client's algorithm for a rung and opens the
// transfer.
func startDownload(st *clientState, threshold, now float64) error {
	man := st.cfg.Manifest
	ladder := man.Ladder()
	sizes := make([]float64, len(ladder))
	for j := range ladder {
		s, err := man.SegmentSizeMB(st.seg, j)
		if err != nil {
			return err
		}
		sizes[j] = s
	}
	dur, err := man.SegmentDuration(st.seg)
	if err != nil {
		return err
	}
	rung, err := st.cfg.Algorithm.ChooseRung(abr.Context{
		SegmentIndex:       st.seg,
		Ladder:             ladder,
		SegmentSizesMB:     sizes,
		SegmentDurationSec: dur,
		PrevRung:           st.prevRung,
		BufferSec:          st.pl.BufferSec(),
		BufferThresholdSec: threshold,
	})
	if err != nil {
		return fmt.Errorf("multisim: client %s segment %d: %w", st.cfg.Name, st.seg, err)
	}
	if rung < 0 || rung >= len(ladder) {
		return fmt.Errorf("multisim: client %s chose rung %d of %d", st.cfg.Name, rung, len(ladder))
	}
	st.downloading = true
	st.rung = rung
	st.sizeMB = sizes[rung]
	st.remainMB = sizes[rung]
	st.segDur = dur
	st.startedAt = now
	return nil
}

// mustBitrate reads a rung's bitrate (the rung was validated at choose
// time).
func mustBitrate(m *dash.Manifest, rung int) float64 {
	return m.Ladder()[rung].BitrateMbps
}

// jain computes Jain's fairness index over xs.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
