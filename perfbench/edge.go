package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ecavs/internal/edgecache"
	"ecavs/internal/httpdash"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// The edge-viewers system sizes. A 200 s presentation over the Table II
// ladder holds ~290 MB, of which the two rungs that get 95 % of the
// requests (edgeMix) hold ~180 MB: about twice the 96 MiB cache, so
// about half the requests miss, fill and evict.
const (
	edgeSegments    = 100
	edgeCacheBytes  = 96 << 20
	edgeCacheShards = 4
	edgeTraceCap    = 4096
)

// edgeRate is the open loop's offered load in requests per second, set
// near half the ~1900/s the edge path completes when saturated on a
// 2-vCPU host.
const edgeRate = 1000

// edgeWindow is the open loop's latency window, long enough to hold
// the 1000 samples an exact p99 needs at edgeRate.
const edgeWindow = 1250 * time.Millisecond

// edgeMix is the audience. The rung weights are the shares of segment
// decisions the default policies make over the Table II ladder in the
// campaign workload's set-up (TestEdgeMixMatchesCampaign recomputes
// them), and viewers abandon as in the campaign workload.
var edgeMix = viewerMix{rungWeights: []float64{0.007, 0.006, 0.008, 0.249, 0.033, 0.698}, abandon: campaignAbandon}

// edgeRig is the edge-viewers system under test: an origin and a caching
// edge in front of it, each on its own loopback listener and each
// tracing with the default tail sampler into one store, plus one
// single-connection client per processor.
type edgeRig struct {
	pres        *presentation
	srv         *httpdash.Server
	edge        *httpdash.Edge
	store       *tracing.Store
	originProbe *handlerProbe
	edgeProbe   *handlerProbe
	originLn    *listener
	edgeLn      *listener
	clients     []*http.Client
}

func setUpEdge(seed int64, procs int) (*edgeRig, error) {
	pres, err := newPresentation(seed, edgeSegments)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	store := tracing.NewStore(edgeTraceCap)
	tracer := func(service string, stream uint64) *tracing.Tracer {
		return tracing.New(tracing.Config{Service: service, Sampler: tracing.DefaultSampler(), Seed: newSplitmix(seed, stream).next()}, store)
	}
	r := &edgeRig{pres: pres, store: store}
	if r.srv, err = httpdash.NewServer(pres.man, httpdash.WithServerTelemetry(reg), httpdash.WithServerTracing(tracer("server", 10))); err != nil {
		return nil, err
	}
	r.originProbe = &handlerProbe{next: r.srv}
	if r.originLn, err = serve(r.originProbe); err != nil {
		return nil, err
	}
	if r.edge, err = httpdash.NewEdge(r.originLn.url,
		httpdash.WithEdgeCache(edgecache.Config{CapacityBytes: edgeCacheBytes, Shards: edgeCacheShards}),
		httpdash.WithEdgeTelemetry(reg),
		httpdash.WithEdgeTracing(tracer("edge", 11))); err != nil {
		r.close()
		return nil, err
	}
	r.edgeProbe = &handlerProbe{next: r.edge}
	if r.edgeLn, err = serve(r.edgeProbe); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < procs; i++ {
		hc := newConnClient(oneConnTransport())
		r.clients = append(r.clients, hc)
		if err := fetchManifest(hc, r.edgeLn.url); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *edgeRig) close() error {
	var err error
	if r.edgeLn != nil {
		err = r.edgeLn.stop()
	}
	if oerr := r.originLn.stop(); err == nil {
		err = oerr
	}
	for _, hc := range r.clients {
		hc.CloseIdleConnections()
	}
	return err
}

// edgeRun is one phase's raw records and counter deltas.
type edgeRun struct {
	requests []reqRecord
	edgeRecs []handlerRecord
	origin   []handlerRecord
	edge     httpdash.EdgeSnapshot
	srv      httpdash.Snapshot
	traces   tracing.StoreStats
	sendLag  summary
	fromDue  summary
}

func edgeDelta(a, b httpdash.EdgeSnapshot) httpdash.EdgeSnapshot {
	return httpdash.EdgeSnapshot{
		Requests: b.Requests - a.Requests, Hits: b.Hits - a.Hits, Fills: b.Fills - a.Fills,
		StaleServes: b.StaleServes - a.StaleServes, Errors: b.Errors - a.Errors, SharedFills: b.SharedFills - a.SharedFills,
		Cache: edgecache.Stats{Evictions: b.Cache.Evictions - a.Cache.Evictions, Fills: b.Cache.Fills - a.Cache.Fills},
	}
}

// phase sends the schedule (warm-up included) and measures the part due
// after warm. Every second of the measured window is sampled so the
// run can show that fills and evictions happened throughout it.
func (r *edgeRig) phase(seed int64, sched []arrival, warm time.Duration, traced bool, fail *failures, ids *atomic.Uint64) (edgeRun, phase, error) {
	ol := &openLoop{base: r.edgeLn.url, pres: r.pres, clients: r.clients, seed: seed, traced: traced, fail: fail, ids: ids}
	edge0, srv0, tr0 := r.edge.Snapshot(), r.srv.Snapshot(), r.store.Stats()

	start := nowNS()
	type sampledWindow struct {
		w     *window
		snaps []httpdash.EdgeSnapshot
	}
	stop := make(chan struct{})
	got := make(chan sampledWindow, 1)
	go func() {
		time.Sleep(time.Duration(start + int64(warm) - nowNS()))
		sw := sampledWindow{w: openWindow(), snaps: []httpdash.EdgeSnapshot{r.edge.Snapshot()}}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sw.snaps = append(sw.snaps, r.edge.Snapshot())
			case <-stop:
				got <- sw
				return
			}
		}
	}()
	recs := ol.run(context.Background(), sched, start)
	close(stop)
	sw := <-got
	sw.w.close()
	if err := fail.err(); err != nil {
		return edgeRun{}, phase{}, err
	}

	run := edgeRun{requests: recs, edgeRecs: r.edgeProbe.take(), origin: r.originProbe.take()}
	run.edge = edgeDelta(edge0, r.edge.Snapshot())
	srv1 := r.srv.Snapshot()
	run.srv = httpdash.Snapshot{Requests: srv1.Requests - srv0.Requests, Shed: srv1.Shed - srv0.Shed}
	tr1 := r.store.Stats()
	run.traces = tracing.StoreStats{Seen: tr1.Seen - tr0.Seen, Kept: tr1.Kept - tr0.Kept}
	if err := checkEdge(run, len(sched), sw.snaps); err != nil {
		return edgeRun{}, phase{}, err
	}

	// The reported latency counts from send: a tail counted from due time
	// charges every host-wide stall to all the requests due during it
	// and measured the host, not the program (README.md). The due-based
	// figures are kept for the printed line.
	var due []int64
	var lat, fromDue, lag []float64
	var sessions, segments, bytes int64
	for _, q := range recs {
		if q.Due < start+int64(warm) {
			continue
		}
		segments++
		bytes += q.Bytes
		if q.Seg == 0 {
			sessions++
		}
		due = append(due, q.Due)
		lat = append(lat, float64(q.End-q.Start)/1e6)
		fromDue = append(fromDue, float64(q.End-q.Due)/1e6)
		lag = append(lag, float64(q.Start-q.Due)/1e6)
	}
	t0, t1 := start+int64(warm), start+int64(sched[len(sched)-1].Due)+1
	run.sendLag = summarize(lag, 0.99)
	run.fromDue = windowed(byWindow(due, fromDue, t0, t1, int64(edgeWindow)), 0.99)
	return run, newPhase(sw.w, sessions, segments, bytes, segments, byWindow(due, lat, t0, t1, int64(edgeWindow))), nil
}

// checkEdge verifies the edge's accounting over a phase: every request
// resolved to exactly one outcome, none failed or went stale, the
// origin saw no more requests than the edge filled, the cache both hit
// and missed, and every full second of the window filled and evicted.
func checkEdge(run edgeRun, sent int, snaps []httpdash.EdgeSnapshot) error {
	e := run.edge
	if e.Requests != int64(sent) {
		return fmt.Errorf("edge counted %d requests, %d were sent", e.Requests, sent)
	}
	if e.Hits+e.Fills+e.StaleServes+e.Errors != e.Requests {
		return fmt.Errorf("edge accounting: hits %d + fills %d + stale %d + errors %d != requests %d", e.Hits, e.Fills, e.StaleServes, e.Errors, e.Requests)
	}
	if e.Errors != 0 || e.StaleServes != 0 {
		return fmt.Errorf("edge answered %d errors and %d stale serves on a healthy origin", e.Errors, e.StaleServes)
	}
	if run.srv.Requests > e.Fills || run.srv.Shed != 0 {
		return fmt.Errorf("origin served %d requests (%d shed) for %d edge fills", run.srv.Requests, run.srv.Shed, e.Fills)
	}
	if e.Hits == 0 || e.Fills == 0 {
		return fmt.Errorf("edge hit ratio %.3f is not strictly between 0 and 1", e.HitRatio())
	}
	for i := 1; i < len(snaps); i++ {
		d := edgeDelta(snaps[i-1], snaps[i])
		if d.Fills == 0 || d.Cache.Evictions == 0 {
			return fmt.Errorf("second %d of the window had %d fills and %d evictions; the working set no longer exceeds the cache", i, d.Fills, d.Cache.Evictions)
		}
	}
	return nil
}

// edgeSchedule is the warm-up's schedule followed by the measured
// window's, each drawn with its own exact composition.
func edgeSchedule(seed int64, seconds int) []arrival {
	warm := poissonSchedule(seed, 3, int(edgeRate*warmUp.Seconds()), warmUp, edgeSegments, edgeMix)
	win := poissonSchedule(seed, 4, edgeRate*seconds, time.Duration(seconds)*time.Second, edgeSegments, edgeMix)
	for i := range win {
		win[i].Due += warmUp
	}
	return append(warm, win...)
}

// runEdgeViewers is the open loop of independent viewers through the
// caching edge.
func runEdgeViewers(cfg config) (*outcome, error) {
	procs := runtime.GOMAXPROCS(0)
	rig, setupS, err := repeatSetUp(func() (*edgeRig, error) { return setUpEdge(cfg.seed, procs) }, (*edgeRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	var ids atomic.Uint64
	fail := &failures{}
	sched := edgeSchedule(cfg.seed, cfg.seconds)
	main, mp, err := rig.phase(cfg.seed, sched, warmUp, false, fail, &ids)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: setupS, main: mp, notes: []string{fmt.Sprintf(
		"open loop from due time (windowed): p50 %.3fms p%.4g %.3fms n=%d; send lag p50 %.3fms p%.4g %.3fms",
		main.fromDue.P50, 100*main.fromDue.TailQ, main.fromDue.Tail, main.fromDue.N,
		main.sendLag.P50, 100*main.sendLag.TailQ, main.sendLag.Tail)}}
	if !cfg.trace {
		return out, rig.close()
	}

	rig.originProbe.on.Store(true)
	rig.edgeProbe.on.Store(true)
	run, tp, err := rig.phase(cfg.seed, sched, warmUp, true, fail, &ids)
	if err != nil {
		return nil, err
	}
	out.traced = &tp
	out.spans = &spanLog{}
	var note string
	if out.layers, note, err = edgeLayers(run, out.spans); err != nil {
		return nil, err
	}
	out.layers.set("bench.send_lag.p99_ms", "ms", main.sendLag.Tail)
	out.notes = append(out.notes, note)
	return out, rig.close()
}

// edgeLayers classifies the traced phase's edge requests into hits and
// fills by key overlap with origin requests, joins them to the
// generator's records by request id, and derives the per-layer figures.
func edgeLayers(run edgeRun, log *spanLog) (metrics, string, error) {
	edge := make([]keyed, len(run.edgeRecs))
	for i, h := range run.edgeRecs {
		edge[i] = keyed{h.Key, h.interval}
	}
	origin := make([]keyed, len(run.origin))
	for i, h := range run.origin {
		origin[i] = keyed{h.Key, h.interval}
	}
	fill, overlaps := classifyFills(edge, origin)

	client := make(map[uint64]reqRecord, len(run.requests))
	for _, q := range run.requests {
		client[q.ReqID] = q
	}
	edgeSpan := make([]uint64, len(edge))
	var hitUS, fillUS, fillSelfUS, originUS []float64
	var hitClient, hitEdge, fillClient, fillEdge, fillOrigin int64
	for i, h := range run.edgeRecs {
		q, ok := client[h.ReqID]
		if !ok || "/seg/"+h.Key != q.Path || h.Start < q.Start || h.Start >= q.End {
			return nil, "", fmt.Errorf("edge record %d for /seg/%s at %d matches no generator request (%s [%d, %d])", h.ReqID, h.Key, h.Start, q.Path, q.Start, q.End)
		}
		rid := log.newID()
		log.add(span{ID: rid, Name: "net.request", Start: q.Start, End: q.End, ReqID: q.ReqID})
		edgeSpan[i] = log.newID()
		if fill[i] {
			log.add(span{ID: edgeSpan[i], Parent: rid, Name: "httpdash.edge.fill", Start: h.Start, End: h.End, ReqID: q.ReqID})
			fillUS = append(fillUS, float64(h.dur())/1e3)
			self := selfTime(h.interval, overlaps[i])
			fillSelfUS = append(fillSelfUS, float64(self)/1e3)
			fillClient += q.End - q.Start
			fillEdge += h.dur()
			fillOrigin += h.dur() - self
		} else {
			log.add(span{ID: edgeSpan[i], Parent: rid, Name: "httpdash.edge.hit", Start: h.Start, End: h.End, ReqID: q.ReqID})
			hitUS = append(hitUS, float64(h.dur())/1e3)
			hitClient += q.End - q.Start
			hitEdge += h.dur()
		}
	}
	// Each origin request is logged under the earliest edge request for
	// its key that overlaps it — the singleflight leader.
	byKey := make(map[string][]int)
	for i, e := range edge {
		byKey[e.Key] = append(byKey[e.Key], i)
	}
	for _, o := range run.origin {
		parent, best := uint64(0), int64(0)
		for _, i := range byKey[o.Key] {
			if e := edge[i]; e.Start < o.End && o.Start < e.End && (parent == 0 || e.Start < best) {
				parent, best = edgeSpan[i], e.Start
			}
		}
		originUS = append(originUS, float64(o.dur())/1e3)
		log.add(span{ID: log.newID(), Parent: parent, Name: "httpdash.server.handler", Start: o.Start, End: o.End})
	}
	hs, fs, ors := summarize(hitUS, 0.99), summarize(fillUS, 0.99), summarize(originUS, 0.99)
	m := metrics{}
	m.set("httpdash.edge.hit.p50_us", "us", hs.P50)
	m.set("httpdash.edge.hit.p99_us", "us", hs.Tail)
	m.set("httpdash.edge.fill.p50_us", "us", fs.P50)
	m.set("httpdash.edge.fill.p99_us", "us", fs.Tail)
	m.set("httpdash.edge.fill_self.p50_us", "us", summarize(fillSelfUS, 0.5).P50)
	m.set("edgecache.hit_ratio", "ratio", float64(run.edge.Hits)/float64(run.edge.Requests))
	m.set("edgecache.evictions", "count", float64(run.edge.Cache.Evictions))
	m.set("httpdash.edge.fills", "count", float64(run.edge.Fills))
	m.set("httpdash.edge.shared_fills", "count", float64(run.edge.SharedFills))
	m.set("httpdash.edge.errors", "count", float64(run.edge.Errors))
	m.set("httpdash.server.requests", "count", float64(run.srv.Requests))
	m.set("httpdash.server.handler.p50_us", "us", ors.P50)
	m.set("httpdash.server.handler.p99_us", "us", ors.Tail)
	var originBusy float64
	for _, v := range originUS {
		originBusy += v
	}
	m.set("httpdash.server.handler.busy_s", "s", originBusy/1e6)
	m.set("tracing.fragments_seen", "count", float64(run.traces.Seen))
	m.set("tracing.fragments_kept", "count", float64(run.traces.Kept))
	nh, nf := float64(max(len(hitUS), 1)), float64(max(len(fillUS), 1))
	note := fmt.Sprintf("cost per edge-viewers hit (mean over %d): client-observed %.1fus = edge handler %.1fus + net %.1fus | per fill (mean over %d): client-observed %.1fus = edge self %.1fus + origin handler %.1fus + net %.1fus",
		len(hitUS), float64(hitClient)/nh/1e3, float64(hitEdge)/nh/1e3, float64(hitClient-hitEdge)/nh/1e3,
		len(fillUS), float64(fillClient)/nf/1e3, float64(fillEdge-fillOrigin)/nf/1e3, float64(fillOrigin)/nf/1e3, float64(fillClient-fillEdge)/nf/1e3)
	return m, note, nil
}
