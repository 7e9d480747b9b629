package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecavs/internal/dash"
	"ecavs/internal/httpdash"
)

// reqHeader carries the benchmark's request id from the client-side
// probe to the handler-side probe; it is set only in the traced run.
const reqHeader = "X-Bench-Request-Id"

// presentation is one served video plus what the benchmark needs to
// check every response against it: the path of every (rung, segment)
// and the byte size the manifest assigns it.
type presentation struct {
	man   *dash.Manifest
	paths [][]string // [rung][segment] request path
	sizes [][]int64  // [rung][segment] payload bytes
	index map[string][2]int
}

func newPresentation(seed int64, segments int) (*presentation, error) {
	video := dash.Video{Title: "perfbench", SpatialInfo: 45, TemporalInfo: 15, DurationSec: float64(segments) * dash.DefaultSegmentSec}
	m, err := dash.NewManifest(video, dash.TableIILadder(), dash.ManifestConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	// A throwaway server renders the URL template, so the benchmark
	// addresses segments exactly as the MPD describes them.
	srv, err := httpdash.NewServer(m)
	if err != nil {
		return nil, err
	}
	p := &presentation{man: m, index: make(map[string][2]int)}
	for rung := range m.Ladder() {
		paths := make([]string, m.SegmentCount())
		sizes := make([]int64, m.SegmentCount())
		for seg := range paths {
			if paths[seg], err = srv.SegmentURL("", rung, seg); err != nil {
				return nil, err
			}
			mb, err := m.SegmentSizeMB(seg, rung)
			if err != nil {
				return nil, err
			}
			// The origin serves a manifest size of s MB as int(s·1e6)
			// bytes, at least one.
			sizes[seg] = max(int64(mb*1e6), 1)
			p.index[paths[seg]] = [2]int{rung, seg}
		}
		p.paths = append(p.paths, paths)
		p.sizes = append(p.sizes, sizes)
	}
	return p, nil
}

// payloadPeriod and payloadPattern describe the origin's synthetic segment
// body: a decimal-digit pattern restarting every 64 KiB.
const payloadPeriod = 64 << 10

var payloadPattern = func() []byte {
	b := make([]byte, payloadPeriod)
	for i := range b {
		b[i] = byte('0' + i%10)
	}
	return b
}()

// matchesPayload reports whether p is the payload at body offset off.
func matchesPayload(off int64, p []byte) bool {
	for len(p) > 0 {
		c := int(off % payloadPeriod)
		n := min(len(p), payloadPeriod-c)
		if !bytes.Equal(p[:n], payloadPattern[c:c+n]) {
			return false
		}
		p, off = p[n:], off+int64(n)
	}
	return true
}

// failures counts failed operations and keeps the first reason.
type failures struct {
	n     atomic.Int64
	mu    sync.Mutex
	first string
}

func (f *failures) add(format string, args ...any) {
	if f.n.Add(1) == 1 {
		f.mu.Lock()
		f.first = fmt.Sprintf(format, args...)
		f.mu.Unlock()
	}
}

func (f *failures) err() error {
	if f.n.Load() == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Errorf("%d failed operations, first: %s", f.n.Load(), f.first)
}

// checkedBody wraps a segment body: it counts bytes, compares content
// against the payload pattern when asked, and calls done exactly once,
// at EOF or Close, with the byte count and the content verdict.
type checkedBody struct {
	rc      io.ReadCloser
	n       int64
	content bool
	bad     bool
	done    func(n int64, contentOK bool)
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 {
		if b.content && !b.bad && !matchesPayload(b.n, p[:n]) {
			b.bad = true
		}
		b.n += int64(n)
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *checkedBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *checkedBody) finish() {
	if b.done != nil {
		b.done(b.n, !b.bad)
		b.done = nil
	}
}

// contentSampled is the seeded content-check sample: a quarter of the bodies,
// chosen by hashing the seed with the request sequence number.
func contentSampled(seed int64, seq uint64) bool {
	r := splitmix{state: uint64(seed) ^ seq*0xd1b54a32d192ed2d}
	return r.next()&3 == 0
}

// reqRecord is one request as the client side saw it, in nanoseconds
// since epoch: due (open loop only), sent, headers back, body done.
type reqRecord struct {
	ReqID   uint64
	Path    string
	Segment bool
	Seg     int // open loop only
	Due     int64
	Start   int64
	Headers int64
	End     int64
	Bytes   int64
}

// check verifies a segment response's status and body length against
// the presentation; contentOK is the verdict of the content check.
func (p *presentation) check(path string, status int, n int64, contentOK bool) error {
	at, ok := p.index[path]
	if !ok {
		return fmt.Errorf("unknown segment path %q", path)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, status)
	}
	if want := p.sizes[at[0]][at[1]]; n != want {
		return fmt.Errorf("%s: body %d bytes, manifest says %d", path, n, want)
	}
	if !contentOK {
		return fmt.Errorf("%s: body content differs from the origin payload", path)
	}
	return nil
}

// probeTransport is the http.RoundTripper given to one player's
// httpdash.Client. It times every request from send to body end,
// verifies every segment response, and in the traced run tags each
// request with an id the handler-side probe joins on.
type probeTransport struct {
	base   http.RoundTripper
	pres   *presentation
	seed   int64
	seq    *atomic.Uint64
	traced bool
	fail   *failures

	mu   sync.Mutex
	recs []reqRecord
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := reqRecord{ReqID: t.seq.Add(1), Path: req.URL.Path, Start: nowNS()}
	_, rec.Segment = t.pres.index[req.URL.Path]
	if t.traced {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(rec.ReqID, 10))
	}
	resp, err := t.base.RoundTrip(req)
	rec.Headers = nowNS()
	if err != nil {
		t.fail.add("%s: %v", req.URL.Path, err)
		return nil, err
	}
	path, status := req.URL.Path, resp.StatusCode
	body := &checkedBody{rc: resp.Body, content: rec.Segment && contentSampled(t.seed, rec.ReqID)}
	body.done = func(n int64, contentOK bool) {
		rec.End, rec.Bytes = nowNS(), n
		if rec.Segment {
			if err := t.pres.check(path, status, n, contentOK); err != nil {
				t.fail.add("%v", err)
				return
			}
		} else if status != http.StatusOK {
			t.fail.add("%s: status %d", path, status)
			return
		}
		t.mu.Lock()
		t.recs = append(t.recs, rec)
		t.mu.Unlock()
	}
	resp.Body = body
	return resp, nil
}

// take returns and clears the recorded requests.
func (t *probeTransport) take() []reqRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs
	t.recs = nil
	return r
}

// handlerRecord is one request as a handler-side probe saw it.
type handlerRecord struct {
	ReqID uint64
	Key   string
	interval
}

// handlerProbe wraps an http.Handler and, while on (the traced
// phase), records every segment request's time inside it.
type handlerProbe struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	recs []handlerRecord
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := nowNS()
	h.next.ServeHTTP(w, r)
	end := nowNS()
	if len(r.URL.Path) <= len("/seg/") || r.URL.Path[:len("/seg/")] != "/seg/" {
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	h.mu.Lock()
	h.recs = append(h.recs, handlerRecord{ReqID: id, Key: r.URL.Path[len("/seg/"):], interval: interval{start, end}})
	h.mu.Unlock()
}

func (h *handlerProbe) take() []handlerRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.recs
	h.recs = nil
	return r
}

// listener serves one handler on a loopback port until stop.
type listener struct {
	hs      *http.Server
	url     string
	done    chan error
	stopped sync.Once
	err     error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and its connections and waits for Serve to
// return; later calls return the first call's result.
func (l *listener) stop() error {
	l.stopped.Do(func() {
		l.err = l.hs.Close()
		if serr := <-l.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && l.err == nil {
			l.err = serr
		}
	})
	return l.err
}

// newConnClient is an http.Client whose transport keeps exactly one
// connection to its host, so n of them cap the load at n connections.
func newConnClient(rt http.RoundTripper) *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: rt}
}

func oneConnTransport() *http.Transport {
	t := httpdash.NewTransport()
	t.MaxConnsPerHost = 1
	t.MaxIdleConnsPerHost = 1
	return t
}
