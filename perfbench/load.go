package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ecavs/internal/abr"
)

// rungPath is session i's rung sequence: a random walk over the ladder
// drawn from (seed, i), starting at a uniform rung and stepping down,
// staying, or up with probabilities 1/4, 1/2, 1/4.
func rungPath(seed int64, session uint64, segments, rungs int) []int {
	r := newSplitmix(seed, 1<<32+session)
	path := make([]int, segments)
	cur := int(r.next() % uint64(rungs))
	for i := range path {
		path[i] = cur
		switch r.next() & 3 {
		case 0:
			cur = max(cur-1, 0)
		case 1:
			cur = min(cur+1, rungs-1)
		}
	}
	return path
}

// replay is the benchmark-side abr.Algorithm for origin-players: it
// replays a precomputed rung path and ignores what it observes, so the
// bytes a session moves do not depend on wall-clock throughput.
type replay struct{ path []int }

func (r *replay) Name() string { return "replay" }

func (r *replay) ChooseRung(ctx abr.Context) (int, error) {
	if ctx.SegmentIndex >= len(r.path) {
		return 0, fmt.Errorf("replay: segment %d beyond a %d-segment path", ctx.SegmentIndex, len(r.path))
	}
	return r.path[ctx.SegmentIndex], nil
}

func (r *replay) ObserveDownload(float64) {}
func (r *replay) Reset()                  {}

// arrival is one open-loop request: due at Due after the schedule
// starts, for segment Seg at rung Rung.
type arrival struct {
	Due  time.Duration
	Rung int
	Seg  int
}

// viewerMix describes the edge-viewers audience: the share of segment
// requests each rung gets, and the share of viewers who quit early.
type viewerMix struct {
	rungWeights []float64
	abandon     float64
}

// watched is the share of viewers who request segment seg of a
// segments-long video under campaign.Run's abandonment model: a viewer
// abandons with probability abandon, at a point uniform between 10 %
// and 90 % of the video, and requests the segments that start before
// that point.
func (m viewerMix) watched(seg, segments int) float64 {
	at := float64(seg) / float64(segments)
	beyond := min(max((0.9-at)/0.8, 0), 1)
	return 1 - m.abandon + m.abandon*beyond
}

// poissonSchedule draws count arrivals over dur: a Poisson process
// conditioned on its count, i.e. sorted uniform times. Its composition
// is fixed by quota rather than drawn, so every seed sends the same
// number of requests for each (rung, segment) — the rung mix times the
// popularity abandonment leaves each segment — and seeds differ only in
// order and timing. The seed and stream pick the draw.
func poissonSchedule(seed int64, stream uint64, count int, dur time.Duration, segments int, mix viewerMix) []arrival {
	r := newSplitmix(seed, stream)
	out := quota(count, segments, mix)
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	times := make([]float64, count)
	for i := range times {
		times[i] = r.float()
	}
	sort.Float64s(times)
	for i := range out {
		out[i].Due = time.Duration(times[i] * float64(dur))
	}
	return out
}

// quota splits n requests over (rung, segment) cells in proportion to
// P(rung)·P(segment), P(segment k) ∝ mix.watched(k), rounding by
// largest remainder so the cells sum to n exactly.
func quota(n, segments int, mix viewerMix) []arrival {
	var wsum float64
	for _, w := range mix.rungWeights {
		wsum += w
	}
	var norm float64
	for seg := 0; seg < segments; seg++ {
		norm += mix.watched(seg, segments)
	}
	type cell struct {
		rung, seg, n int
		frac         float64
	}
	var cells []cell
	left := n
	for rung, w := range mix.rungWeights {
		for seg := 0; seg < segments; seg++ {
			exact := float64(n) * w / wsum * mix.watched(seg, segments) / norm
			c := cell{rung: rung, seg: seg, n: int(exact)}
			c.frac = exact - float64(c.n)
			left -= c.n
			cells = append(cells, c)
		}
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cells[order[a]].frac > cells[order[b]].frac })
	for _, i := range order[:left] {
		cells[i].n++
	}
	out := make([]arrival, 0, n)
	for _, c := range cells {
		for k := 0; k < c.n; k++ {
			out = append(out, arrival{Rung: c.rung, Seg: c.seg})
		}
	}
	return out
}

// openLoop sends a schedule over a fixed set of connections: each
// connection's worker takes the next arrival, waits until it is due,
// and sends it. When every connection is busy, due requests wait in
// the generator. Each record keeps the due time as well as the send
// time, so latency can be counted from either, and the difference is
// the send lag.
type openLoop struct {
	base    string
	pres    *presentation
	clients []*http.Client
	seed    int64
	traced  bool
	fail    *failures
	ids     *atomic.Uint64
}

// run sends sched with due times counted from start (nanoseconds since
// epoch) and returns each request's record.
func (o *openLoop) run(ctx context.Context, sched []arrival, start int64) []reqRecord {
	recs := make([]reqRecord, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, hc := range o.clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				due := start + int64(sched[i].Due)
				waitUntil(due)
				recs[i] = o.send(ctx, hc, sched[i], due)
			}
		}(hc)
	}
	wg.Wait()
	return recs
}

// waitUntil blocks until nowNS reaches due. Go's timers can wake a
// millisecond late on Linux, which would charge the generator's own
// lateness to every open-loop request; nanosleep short of the kernel's
// default 50 µs timer slack, then yielding until due, keeps the
// lateness to tens of microseconds.
func waitUntil(due int64) {
	const slack = 50_000
	for {
		d := due - nowNS() - slack
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep re-checks the clock
	}
	for nowNS() < due {
		runtime.Gosched()
	}
}

// send issues one segment request and verifies the response; a failed
// request returns a record with End == 0.
func (o *openLoop) send(ctx context.Context, hc *http.Client, a arrival, due int64) reqRecord {
	path := o.pres.paths[a.Rung][a.Seg]
	rec := reqRecord{ReqID: o.ids.Add(1), Path: path, Segment: true, Seg: a.Seg, Due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.base+path, nil)
	if err != nil {
		o.fail.add("%s: %v", path, err)
		return rec
	}
	if o.traced {
		req.Header.Set(reqHeader, strconv.FormatUint(rec.ReqID, 10))
	}
	rec.Start = nowNS()
	resp, err := hc.Do(req)
	rec.Headers = nowNS()
	if err != nil {
		o.fail.add("%s: %v", path, err)
		return rec
	}
	var n int64
	var contentOK bool
	body := &checkedBody{rc: resp.Body, content: contentSampled(o.seed, rec.ReqID), done: func(bn int64, ok bool) { n, contentOK = bn, ok }}
	_, cerr := io.Copy(io.Discard, body)
	body.Close()
	end := nowNS()
	if cerr != nil {
		o.fail.add("%s: read body: %v", path, cerr)
		return rec
	}
	if err := o.pres.check(path, resp.StatusCode, n, contentOK); err != nil {
		o.fail.add("%v", err)
		return rec
	}
	rec.End, rec.Bytes = end, n
	return rec
}
