package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/httpdash"
	"ecavs/internal/telemetry"
)

const (
	// originSegments is the origin-players presentation length: a 60 s
	// video in 2 s segments over the Table II ladder.
	originSegments = 30
	// tracedSessionRate fixes the traced phase's work: each player
	// streams seconds×tracedSessionRate whole sessions, so the traced
	// run's request counts repeat exactly for a seed. It approximates
	// one player's closed-loop session rate on a 2-vCPU host.
	tracedSessionRate = 80
	// warmUp is the untimed load every HTTP workload runs after set-up.
	warmUp = time.Second
	// latencyWindow is the closed loop's latency window: each second's
	// exact percentiles, medians taken across seconds.
	latencyWindow = time.Second
)

// originRig is the origin-players system under test: one origin on
// loopback and one httpdash.Client per player, each over its own
// connection.
type originRig struct {
	pres    *presentation
	srv     *httpdash.Server
	probe   *handlerProbe
	ln      *listener
	players []*player
}

type player struct {
	tr     *probeTransport
	client *httpdash.Client
	alg    *replay
}

// setUpOrigin builds the presentation, the origin (telemetry on,
// admission control sized so it never binds for this many players),
// the listener and the players, and opens each player's connection
// with a first manifest fetch.
func setUpOrigin(seed int64, procs int, ids *atomic.Uint64, fail *failures) (*originRig, error) {
	pres, err := newPresentation(seed, originSegments)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv, err := httpdash.NewServer(pres.man,
		httpdash.WithServerTelemetry(reg),
		httpdash.WithAdmissionControl(httpdash.AdmissionConfig{MaxInFlight: 4 * procs, MaxQueue: 4 * procs}))
	if err != nil {
		return nil, err
	}
	rig := &originRig{pres: pres, srv: srv, probe: &handlerProbe{next: srv}}
	if rig.ln, err = serve(rig.probe); err != nil {
		return nil, err
	}
	for i := 0; i < procs; i++ {
		p := &player{alg: &replay{}, tr: &probeTransport{base: oneConnTransport(), pres: pres, seed: seed, seq: ids, fail: fail}}
		hc := newConnClient(p.tr)
		if p.client, err = httpdash.NewClient(rig.ln.url, p.alg, httpdash.WithHTTPClient(hc), httpdash.WithClientTelemetry(reg)); err != nil {
			rig.close()
			return nil, err
		}
		rig.players = append(rig.players, p)
		if err := fetchManifest(hc, rig.ln.url); err != nil {
			rig.close()
			return nil, err
		}
	}
	return rig, nil
}

// fetchManifest GETs the manifest once, reading it to the end.
func fetchManifest(hc *http.Client, base string) error {
	resp, err := hc.Get(base + "/manifest.mpd")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("manifest: status %d", resp.StatusCode)
	}
	return nil
}

func (r *originRig) close() error {
	err := r.ln.stop()
	for _, p := range r.players {
		p.tr.base.(*http.Transport).CloseIdleConnections()
	}
	return err
}

// sessionRec is one streamed session as its player saw it.
type sessionRec struct {
	player int
	interval
}

// closedLoop runs every player back to back: either for d, finishing
// the session in progress, or for exactly perPlayer sessions each.
// Session i streams rung path i of the seed; its Stats must show
// every segment at the path's rung and exactly the path's bytes.
func (r *originRig) closedLoop(seed int64, d time.Duration, perPlayer int, next *atomic.Uint64, fail *failures) []sessionRec {
	deadline := time.Now().Add(d)
	rungs := len(r.pres.sizes)
	var mu sync.Mutex
	var recs []sessionRec
	var wg sync.WaitGroup
	for pi, p := range r.players {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				if (perPlayer > 0 && k >= perPlayer) || (perPlayer == 0 && !time.Now().Before(deadline)) {
					return
				}
				i := next.Add(1) - 1
				p.alg.path = rungPath(seed, i, originSegments, rungs)
				t0 := nowNS()
				st, err := p.client.Stream(context.Background())
				t1 := nowNS()
				if err != nil {
					fail.add("session %d: %v", i, err)
					return
				}
				if err := r.checkSession(p.alg.path, st); err != nil {
					fail.add("session %d: %v", i, err)
					return
				}
				mu.Lock()
				recs = append(recs, sessionRec{pi, interval{t0, t1}})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

func (r *originRig) checkSession(path []int, st *httpdash.Stats) error {
	if len(st.Fetches) != len(path) {
		return fmt.Errorf("%d segments fetched, want %d", len(st.Fetches), len(path))
	}
	var want int64
	for seg, rung := range path {
		if f := st.Fetches[seg]; f.Segment != seg || f.Rung != rung {
			return fmt.Errorf("fetch %d is segment %d at rung %d, want rung %d", seg, f.Segment, f.Rung, rung)
		}
		want += r.pres.sizes[rung][seg]
	}
	if st.TotalBytes != want {
		return fmt.Errorf("TotalBytes %d, rung path sums to %d", st.TotalBytes, want)
	}
	return nil
}

// originRun is one phase's raw records.
type originRun struct {
	sessions []sessionRec
	requests [][]reqRecord // per player
	handlers []handlerRecord
	snap     httpdash.Snapshot
}

// phase runs the closed loop inside a measurement window and checks
// that the origin saw exactly the players' segment requests, none of
// them queued or shed.
func (r *originRig) phase(seed int64, d time.Duration, perPlayer int, next *atomic.Uint64, fail *failures) (originRun, phase, error) {
	before := r.srv.Snapshot()
	w := openWindow()
	sessions := r.closedLoop(seed, d, perPlayer, next, fail)
	w.close()
	if err := fail.err(); err != nil {
		return originRun{}, phase{}, err
	}
	run := originRun{sessions: sessions, handlers: r.probe.take()}
	after := r.srv.Snapshot()
	run.snap = httpdash.Snapshot{Requests: after.Requests - before.Requests, Queued: after.Queued - before.Queued, Shed: after.Shed - before.Shed}
	var at []int64
	var lat []float64
	var segments, bytes int64
	for _, p := range r.players {
		recs := p.tr.take()
		run.requests = append(run.requests, recs)
		for _, q := range recs {
			if q.Segment {
				segments++
				bytes += q.Bytes
				at = append(at, q.Start)
				lat = append(lat, float64(q.End-q.Start)/1e6)
			}
		}
	}
	if run.snap.Requests != segments || run.snap.Queued != 0 || run.snap.Shed != 0 {
		return originRun{}, phase{}, fmt.Errorf("origin counted %d requests (%d queued, %d shed) for %d client segment requests",
			run.snap.Requests, run.snap.Queued, run.snap.Shed, segments)
	}
	groups := byWindow(at, lat, w.at, w.at+int64(w.wall), int64(latencyWindow))
	return run, newPhase(w, int64(len(sessions)), segments, bytes, segments, groups), nil
}

// runOriginPlayers is the closed loop of httpdash.Client players
// streaming whole presentations from the in-process origin.
func runOriginPlayers(cfg config) (*outcome, error) {
	procs := runtime.GOMAXPROCS(0)
	var ids, next atomic.Uint64
	fail := &failures{}
	rig, setupS, err := repeatSetUp(func() (*originRig, error) { return setUpOrigin(cfg.seed, procs, &ids, fail) }, (*originRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	for _, p := range rig.players {
		p.tr.take()
	}

	rig.closedLoop(cfg.seed, warmUp, 0, &next, fail)
	if err := fail.err(); err != nil {
		return nil, err
	}
	rig.probe.take()
	for _, p := range rig.players {
		p.tr.take()
	}
	_, main, err := rig.phase(cfg.seed, cfg.duration(), 0, &next, fail)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: setupS, main: main}
	if !cfg.trace {
		return out, rig.close()
	}

	rig.probe.on.Store(true)
	for _, p := range rig.players {
		p.tr.traced = true
	}
	next.Store(0)
	run, tp, err := rig.phase(cfg.seed, 0, cfg.seconds*tracedSessionRate, &next, fail)
	if err != nil {
		return nil, err
	}
	out.traced = &tp
	out.spans = &spanLog{}
	var note string
	if out.layers, note, err = originLayers(run, out.spans); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, note)
	return out, rig.close()
}

// originLayers joins the traced phase's client requests to the origin
// handler's records by request id and derives the per-layer figures.
func originLayers(run originRun, log *spanLog) (metrics, string, error) {
	byID := make(map[uint64]handlerRecord, len(run.handlers))
	for _, h := range run.handlers {
		if _, dup := byID[h.ReqID]; dup || h.ReqID == 0 {
			return nil, "", fmt.Errorf("origin handler record for %s carries request id %d, missing or seen twice", h.Key, h.ReqID)
		}
		byID[h.ReqID] = h
	}
	var sessMS, manifestUS, ttfbUS, netSelfUS, handlerUS []float64
	var clientSelf, handlerBusy, reqTotal int64
	joined, overran := 0, 0
	for pi, recs := range run.requests {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		var mine []sessionRec
		for _, s := range run.sessions {
			if s.player == pi {
				mine = append(mine, s)
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].Start < mine[j].Start })
		q := 0
		for _, s := range mine {
			sid := log.newID()
			log.add(span{ID: sid, Name: "httpdash.client.session", Start: s.Start, End: s.End})
			sessMS = append(sessMS, float64(s.dur())/1e6)
			var inner []interval
			for ; q < len(recs) && recs[q].Start < s.End; q++ {
				rq := recs[q]
				if rq.Start < s.Start {
					continue
				}
				iv := interval{rq.Start, rq.End}
				inner = append(inner, iv)
				rid := log.newID()
				if !rq.Segment {
					manifestUS = append(manifestUS, float64(iv.dur())/1e3)
					log.add(span{ID: rid, Parent: sid, Name: "httpdash.client.manifest", Start: iv.Start, End: iv.End, ReqID: rq.ReqID})
					continue
				}
				log.add(span{ID: rid, Parent: sid, Name: "net.request", Start: iv.Start, End: iv.End, ReqID: rq.ReqID})
				h, ok := byID[rq.ReqID]
				if !ok {
					return nil, "", fmt.Errorf("segment request %d reached no origin handler", rq.ReqID)
				}
				// The join holds only if the handler served this request's
				// path and started inside the client's interval. The
				// handler can still be returning after the client has read
				// the last byte (its goroutine waits for a processor), so
				// its time is clipped to the client's end: net.self, the
				// rest of the client's latency, is then never negative and
				// net.self + handler == client latency.
				if "/seg/"+h.Key != rq.Path || h.Start < iv.Start || h.Start >= iv.End {
					return nil, "", fmt.Errorf("request %d: origin handler for /seg/%s started at %d, client request for %s ran [%d, %d]",
						rq.ReqID, h.Key, h.Start, rq.Path, iv.Start, iv.End)
				}
				if h.End > iv.End {
					overran++
				}
				hv := interval{h.Start, min(h.End, iv.End)}
				log.add(span{ID: log.newID(), Parent: rid, Name: "httpdash.server.handler", Start: hv.Start, End: hv.End, ReqID: rq.ReqID})
				netSelf := iv.dur() - hv.dur()
				joined++
				reqTotal += iv.dur()
				handlerBusy += hv.dur()
				ttfbUS = append(ttfbUS, float64(rq.Headers-rq.Start)/1e3)
				netSelfUS = append(netSelfUS, float64(netSelf)/1e3)
				handlerUS = append(handlerUS, float64(hv.dur())/1e3)
			}
			clientSelf += selfTime(s.interval, inner)
		}
	}
	if joined != len(run.handlers) || int64(joined) != run.snap.Requests {
		return nil, "", fmt.Errorf("joined %d client segment requests to %d handler records (origin counted %d)", joined, len(run.handlers), run.snap.Requests)
	}
	m := metrics{}
	m.set("httpdash.client.session.p50_ms", "ms", summarize(sessMS, 0.5).P50)
	m.set("httpdash.client.manifest.p50_us", "us", summarize(manifestUS, 0.5).P50)
	m.set("httpdash.client.self_busy_s", "s", float64(clientSelf)/1e9)
	m.set("net.ttfb.p50_us", "us", summarize(ttfbUS, 0.5).P50)
	m.set("net.self.p50_us", "us", summarize(netSelfUS, 0.5).P50)
	hs := summarize(handlerUS, 0.99)
	m.set("httpdash.server.handler.p50_us", "us", hs.P50)
	m.set("httpdash.server.handler.p99_us", "us", hs.Tail)
	m.set("httpdash.server.handler.busy_s", "s", float64(handlerBusy)/1e9)
	m.set("httpdash.server.requests", "count", float64(run.snap.Requests))
	m.set("httpdash.server.queued", "count", float64(run.snap.Queued))
	m.set("httpdash.server.shed", "count", float64(run.snap.Shed))
	n := float64(joined)
	note := fmt.Sprintf("cost per origin-players segment (mean over %d): client-observed request %.1fus = net.self %.1fus + origin handler %.1fus; client session loop self %.1fus; %d handlers returned after their client's last byte",
		joined, float64(reqTotal)/n/1e3, float64(reqTotal-handlerBusy)/n/1e3, float64(handlerBusy)/n/1e3, float64(clientSelf)/n/1e3, overran)
	return m, note, nil
}
