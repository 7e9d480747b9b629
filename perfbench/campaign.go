package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/campaign"
	"ecavs/internal/core"
	"ecavs/internal/dash"
	"ecavs/internal/power"
	"ecavs/internal/qoe"
	"ecavs/internal/sim"
	"ecavs/internal/telemetry"
	"ecavs/internal/trace"
)

const (
	// campaignBatch is the session count of one campaign.Run, a
	// multiple of the four default policies so each gets an equal share.
	campaignBatch = 4000
	// The viewer-context knobs, all on: cmd/campaign's abandonment and
	// vibration-jitter defaults plus a seeded outage process on a
	// quarter of the sessions.
	campaignAbandon = 0.25
	campaignJitter  = 0.3
	campaignOutage  = 0.25
	// campaignShards is one shard, not one per processor. Sessions are
	// split between shards statically, so with two shards on two vCPUs
	// every batch waits for whichever shard the host or the collector
	// slowed, and the spread of ten runs' throughput passed its 0.25
	// bound; one shard leaves the second vCPU to the collector and the
	// Live telemetry.
	campaignShards = 1
	// sampleEvery picks the sessions whose wall latency is timed: every
	// sampleEvery-th instance of each policy, which leaves each batch
	// the 1000 samples an exact p99 needs. Timing every session would
	// cost a clock read per segment. logEvery picks, in the first traced
	// batch, the sessions that keep each call as a span.
	sampleEvery = 4
	logEvery    = 16
	// tracedBatchRate fixes the traced phase's work at seconds ×
	// tracedBatchRate batches, about one batch per second of traced
	// throughput on one shard of a 2-vCPU host.
	tracedBatchRate = 1
)

// abrProbe decorates every policy a campaign builds: each session's
// algorithm is wrapped in an abrSession that counts its decisions and
// simulated bytes and, when traced, times every call. logCalls makes
// the sampled sessions of the next batch keep every call as a span.
type abrProbe struct {
	traced   bool
	logCalls bool
	perSpec  []atomic.Int64

	mu       sync.Mutex
	sessions []*abrSession
}

func (p *abrProbe) wrap(specs []campaign.AlgorithmSpec) []campaign.AlgorithmSpec {
	p.perSpec = make([]atomic.Int64, len(specs))
	out := make([]campaign.AlgorithmSpec, len(specs))
	for i, spec := range specs {
		out[i] = campaign.AlgorithmSpec{Name: spec.Name, New: func() (abr.Algorithm, error) {
			alg, err := spec.New()
			if err != nil {
				return nil, err
			}
			_, online := alg.(*core.Online)
			k := p.perSpec[i].Add(1) - 1
			s := &abrSession{inner: alg, online: online, traced: p.traced, sampled: k%sampleEvery == 0,
				logged: p.traced && p.logCalls && k%logEvery == 0}
			if s.sampled || s.traced {
				s.start = nowNS()
				s.last = s.start
			}
			p.mu.Lock()
			p.sessions = append(p.sessions, s)
			p.mu.Unlock()
			return s, nil
		}}
	}
	return out
}

func (p *abrProbe) take() []*abrSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions
	p.sessions = nil
	return s
}

// abrSession is one session's decorated algorithm. Only the owning
// shard goroutine calls it; the probe reads it after campaign.Run
// returns.
type abrSession struct {
	inner                           abr.Algorithm
	online, traced, sampled, logged bool

	start, last int64
	decisions   int64
	simMB       float64

	chooseBusy, observeBusy int64
	chooseNS                []float64 // logged sessions only
	calls                   []span    // logged sessions only
}

func (s *abrSession) Name() string { return s.inner.Name() }
func (s *abrSession) Reset()       { s.inner.Reset() }

func (s *abrSession) ChooseRung(ctx abr.Context) (int, error) {
	var t0 int64
	if s.traced {
		t0 = nowNS()
	}
	r, err := s.inner.ChooseRung(ctx)
	if s.traced {
		t1 := nowNS()
		s.chooseBusy += t1 - t0
		if s.logged {
			s.chooseNS = append(s.chooseNS, float64(t1-t0))
			s.calls = append(s.calls, span{Name: "abr.choose", Start: t0, End: t1})
		}
		s.last = t1
	}
	s.decisions++
	if err == nil && r >= 0 && r < len(ctx.SegmentSizesMB) {
		s.simMB += ctx.SegmentSizesMB[r]
	}
	return r, err
}

func (s *abrSession) ObserveDownload(mbps float64) {
	if !s.traced {
		s.inner.ObserveDownload(mbps)
		if s.sampled {
			s.last = nowNS()
		}
		return
	}
	t0 := nowNS()
	s.inner.ObserveDownload(mbps)
	t1 := nowNS()
	s.observeBusy += t1 - t0
	if s.logged {
		s.calls = append(s.calls, span{Name: "abr.observe", Start: t0, End: t1})
	}
	s.last = t1
}

// campaignSet is one set-up's product: the Table V traces, compiled,
// and the time each set-up stage took.
type campaignSet struct {
	traces                []*trace.Trace
	specs                 []campaign.AlgorithmSpec
	compileMS, manifestMS float64
}

// setUpCampaign generates the traces, compiles them, and builds their
// manifests and the policy set — everything a campaign needs before its
// first session.
func setUpCampaign() (campaignSet, error) {
	traces, err := trace.GenerateTableV(power.EvalModel().NominalThroughputMBps)
	if err != nil {
		return campaignSet{}, err
	}
	t1 := time.Now()
	for _, tr := range traces {
		if _, err := tr.Compiled(); err != nil {
			return campaignSet{}, err
		}
	}
	t2 := time.Now()
	for _, tr := range traces {
		if _, err := sim.ManifestForTrace(tr, dash.EvalLadder()); err != nil {
			return campaignSet{}, err
		}
	}
	t3 := time.Now()
	specs, err := campaign.DefaultAlgorithms(power.EvalModel(), qoe.Default(), core.DefaultAlpha)
	if err != nil {
		return campaignSet{}, err
	}
	return campaignSet{traces: traces, specs: specs,
		compileMS: float64(t2.Sub(t1)) / 1e6, manifestMS: float64(t3.Sub(t2)) / 1e6}, nil
}

// checkCampaign verifies one result: every policy present with an equal
// share of sessions, every statistic finite.
func checkCampaign(res *campaign.Result, specs []campaign.AlgorithmSpec) error {
	if res.Sessions != campaignBatch || len(res.Algorithms) != len(specs) {
		return fmt.Errorf("campaign result has %d sessions over %d policies, want %d over %d",
			res.Sessions, len(res.Algorithms), campaignBatch, len(specs))
	}
	for i, a := range res.Algorithms {
		if a.Name != specs[i].Name || a.Sessions != int64(campaignBatch/len(specs)) {
			return fmt.Errorf("policy %d: %s with %d sessions, want %s with %d", i, a.Name, a.Sessions, specs[i].Name, campaignBatch/len(specs))
		}
		for _, d := range []campaign.Dist{a.EnergyJ, a.QoE, a.RebufferSec, a.Switches, a.OutageSec} {
			for _, v := range []float64{d.Mean, d.Std, d.Min, d.Max, d.P50, d.P95} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("policy %s: non-finite statistic %v", a.Name, v)
				}
			}
		}
	}
	return nil
}

// batchResult is one campaign.Run of a phase, folded from its
// sessions' probes so the algorithm instances can be collected.
type batchResult struct {
	wall                    time.Duration
	decisions               int64
	simMB                   float64
	chooseBusy, observeBusy int64
	latMS                   []float64     // sampled sessions' wall latency
	logged                  []*abrSession // logged sessions, algorithm dropped
}

// runBatches runs batches of the same campaign, either until d has
// passed or, when count is positive, exactly count of them, and checks
// each against ref, the warm-up batch. All batches share one seed, so
// their results and decision counts must be bit-identical. A set
// probe.logCalls applies to the first batch only.
func runBatches(cc campaign.Config, probe *abrProbe, ref *campaign.Result, refDecisions int64, d time.Duration, count int) ([]batchResult, error) {
	var out []batchResult
	deadline := time.Now().Add(d)
	for len(out) == 0 || (count > 0 && len(out) < count) || (count == 0 && time.Now().Before(deadline)) {
		t0 := time.Now()
		res, err := campaign.Run(cc)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(res, ref) {
			return nil, errors.New("campaign result differs between repeats of one seed")
		}
		probe.logCalls = false
		sessions := probe.take()
		if len(sessions) != campaignBatch {
			return nil, fmt.Errorf("campaign built %d algorithm instances, want %d", len(sessions), campaignBatch)
		}
		b := batchResult{wall: wall}
		for _, s := range sessions {
			b.decisions += s.decisions
			b.simMB += s.simMB
			b.chooseBusy += s.chooseBusy
			b.observeBusy += s.observeBusy
			if s.sampled {
				b.latMS = append(b.latMS, float64(s.last-s.start)/1e6)
			}
			if s.logged {
				s.inner = nil
				b.logged = append(b.logged, s)
			}
		}
		if b.decisions != refDecisions {
			return nil, fmt.Errorf("batch made %d decisions, the first made %d", b.decisions, refDecisions)
		}
		out = append(out, b)
	}
	return out, nil
}

// campaignPhase turns a phase's batches into end-to-end figures: rates
// are medians over batches, latency is each sampled session's wall
// time from its algorithm's construction to its last download.
func campaignPhase(w *window, batches []batchResult) phase {
	var sps, gps, mbps []float64
	var lat [][]float64
	for _, b := range batches {
		s := b.wall.Seconds()
		sps = append(sps, campaignBatch/s)
		gps = append(gps, float64(b.decisions)/s)
		mbps = append(mbps, b.simMB/s)
		lat = append(lat, b.latMS)
	}
	ops := int64(len(batches) * campaignBatch)
	return phase{
		sessionsPerS: percentile(sps, 0.5),
		segmentsPerS: percentile(gps, 0.5),
		goodputMBps:  percentile(mbps, 0.5),
		lat:          windowed(lat, latencyTail),
		p99:          windowed(lat, 0.99),
		cpuPerOpUS:   float64(w.cpuUse.Microseconds()) / float64(ops),
		allocPerOp:   float64(w.allocd) / float64(ops),
		gcCycles:     w.gcDone,
		attempted:    ops,
	}
}

// runCampaign is the researcher's path: campaign.Run over the Table V
// traces with the default policies, abandonment, vibration jitter and
// outages on, one shard, and live telemetry attached.
func runCampaign(cfg config) (*outcome, error) {
	var compiles, manifests []float64
	set, setupS, err := repeatSetUp(func() (campaignSet, error) {
		s, err := setUpCampaign()
		compiles = append(compiles, s.compileMS)
		manifests = append(manifests, s.manifestMS)
		return s, err
	}, func(campaignSet) error { return nil })
	if err != nil {
		return nil, err
	}
	probe := &abrProbe{}
	cc := campaign.Config{
		Traces:          set.traces,
		Algorithms:      probe.wrap(set.specs),
		Sessions:        campaignBatch,
		Seed:            cfg.seed,
		Shards:          campaignShards,
		AbandonProb:     campaignAbandon,
		VibrationJitter: campaignJitter,
		OutageProb:      campaignOutage,
		Live:            campaign.NewLive(telemetry.NewRegistry()),
	}

	// Warm-up: one batch, which is also the reference every later batch
	// must reproduce.
	ref, err := campaign.Run(cc)
	if err != nil {
		return nil, err
	}
	if err := checkCampaign(ref, set.specs); err != nil {
		return nil, err
	}
	var refDecisions int64
	for _, s := range probe.take() {
		refDecisions += s.decisions
	}
	runtime.GC() // the warm-up batch's instances are garbage before timing starts

	w := openWindow()
	batches, err := runBatches(cc, probe, ref, refDecisions, cfg.duration(), 0)
	if err != nil {
		return nil, err
	}
	w.close()
	out := &outcome{setupS: setupS, main: campaignPhase(w, batches)}
	if !cfg.trace {
		return out, nil
	}

	// The traced phase runs a fixed number of batches, so its busy
	// totals count the same work on every run and a faster layer lowers
	// its own figure.
	probe.traced, probe.logCalls = true, true
	tw := openWindow()
	tb, err := runBatches(cc, probe, ref, refDecisions, 0, cfg.seconds*tracedBatchRate)
	if err != nil {
		return nil, err
	}
	tw.close()
	tp := campaignPhase(tw, tb)
	out.traced = &tp
	out.spans = &spanLog{}
	var note string
	out.layers, note = campaignLayers(tb, ref, cc.Shards, out.spans)
	out.notes = append(out.notes, note)
	out.layers.set("trace.compile_ms", "ms", percentile(compiles, 0.5))
	out.layers.set("dash.manifest_ms", "ms", percentile(manifests, 0.5))
	return out, nil
}

// campaignLayers derives the per-layer figures of a traced phase: busy
// times from every session, per-call samples and spans from the logged
// sessions of its first batch. It also renders the per-session cost
// line.
func campaignLayers(batches []batchResult, ref *campaign.Result, shards int, log *spanLog) (metrics, string) {
	var chooseBusy, observeBusy, shardTime int64
	var chooseNS, onlineNS, selfNS []float64
	root := log.newID()
	var first, last int64
	for _, b := range batches {
		shardTime += int64(shards) * int64(b.wall)
		chooseBusy += b.chooseBusy
		observeBusy += b.observeBusy
		for _, s := range b.logged {
			chooseNS = append(chooseNS, s.chooseNS...)
			if s.online {
				onlineNS = append(onlineNS, s.chooseNS...)
			}
			id := log.newID()
			log.add(span{ID: id, Parent: root, Name: "sim.session", Start: s.start, End: s.last})
			ivs := make([]interval, len(s.calls))
			for i, c := range s.calls {
				ivs[i] = interval{c.Start, c.End}
				c.ID, c.Parent = log.newID(), id
				log.add(c)
			}
			selfNS = append(selfNS, float64(selfTime(interval{s.start, s.last}, ivs)))
			if first == 0 || s.start < first {
				first = s.start
			}
			last = max(last, s.last)
		}
	}
	log.add(span{ID: root, Name: "campaign.run", Start: first, End: last})
	var abandoned, outages int64
	for _, a := range ref.Algorithms {
		abandoned += a.Abandoned
		outages += a.OutageSessions
	}
	m := metrics{}
	m.set("abr.choose.calls", "count", float64(batches[0].decisions))
	m.set("abr.choose.busy_s", "s", float64(chooseBusy)/1e9)
	m.set("abr.choose.p50_ns", "ns", summarize(chooseNS, 0.5).P50)
	m.set("core.online.choose.p50_ns", "ns", summarize(onlineNS, 0.5).P50)
	m.set("abr.observe.busy_s", "s", float64(observeBusy)/1e9)
	m.set("sim.self_busy_s", "s", float64(shardTime-chooseBusy-observeBusy)/1e9)
	m.set("campaign.sessions", "count", float64(ref.Sessions))
	m.set("campaign.abandoned", "count", float64(abandoned))
	m.set("campaign.outage_sessions", "count", float64(outages))
	n := float64(len(batches) * campaignBatch)
	note := fmt.Sprintf("cost per campaign session: shard time %.1fus = abr.choose %.1fus + abr.observe %.1fus + sim self %.1fus; sampled-session sim self p50 %.1fus (n=%d)",
		float64(shardTime)/n/1e3, float64(chooseBusy)/n/1e3, float64(observeBusy)/n/1e3,
		float64(shardTime-chooseBusy-observeBusy)/n/1e3, summarize(selfNS, 0.5).P50/1e3, len(selfNS))
	return m, note
}
