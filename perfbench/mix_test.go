package main

import (
	"math"
	"sync"
	"testing"

	"ecavs/internal/abr"
	"ecavs/internal/campaign"
	"ecavs/internal/dash"
)

// rungCounter decorates a policy to count the rungs it chooses.
type rungCounter struct {
	abr.Algorithm
	mu     *sync.Mutex
	counts []int64
}

func (c rungCounter) ChooseRung(ctx abr.Context) (int, error) {
	r, err := c.Algorithm.ChooseRung(ctx)
	if err == nil {
		c.mu.Lock()
		c.counts[r]++
		c.mu.Unlock()
	}
	return r, err
}

// The edge-viewers rung weights are the shares of segment decisions the
// default policies make over the Table II ladder in a campaign with the
// campaign workload's traces and viewer-context knobs.
func TestEdgeMixMatchesCampaign(t *testing.T) {
	set, err := setUpCampaign()
	if err != nil {
		t.Fatal(err)
	}
	ladder := dash.TableIILadder()
	var mu sync.Mutex
	counts := make([]int64, len(ladder))
	specs := make([]campaign.AlgorithmSpec, len(set.specs))
	for i, spec := range set.specs {
		specs[i] = campaign.AlgorithmSpec{Name: spec.Name, New: func() (abr.Algorithm, error) {
			alg, err := spec.New()
			return rungCounter{alg, &mu, counts}, err
		}}
	}
	if _, err := campaign.Run(campaign.Config{
		Traces: set.traces, Ladder: ladder, Algorithms: specs, Sessions: campaignBatch, Seed: 1, Shards: campaignShards,
		AbandonProb: campaignAbandon, VibrationJitter: campaignJitter, OutageProb: campaignOutage,
	}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	var wsum float64
	for _, w := range edgeMix.rungWeights {
		wsum += w
	}
	for r, c := range counts {
		got, want := float64(c)/float64(total), edgeMix.rungWeights[r]/wsum
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rung %d: campaign share %.4f, edge-viewers weight %.4f", r, got, want)
		}
	}
}

func TestWatchedFollowsCampaignAbandonment(t *testing.T) {
	m := viewerMix{abandon: 0.25}
	for _, c := range []struct {
		seg  int
		want float64
	}{
		{0, 1}, {10, 1}, // nobody quits before 10 % of the video
		{50, 0.875},            // half the abandoners quit before the middle
		{90, 0.75}, {99, 0.75}, // all of them quit by 90 %
	} {
		if got := m.watched(c.seg, 100); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("watched(%d of 100) = %g, want %g", c.seg, got, c.want)
		}
	}
}
