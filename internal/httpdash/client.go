package httpdash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ecavs/internal/abr"
	"ecavs/internal/player"
	"ecavs/internal/telemetry"
	"ecavs/internal/tracing"
)

// Typed fetch failures.
var (
	// ErrTruncated marks a segment whose body ended short of the
	// advertised Content-Length — a half-delivered download that must
	// never be silently counted as a success.
	ErrTruncated = errors.New("httpdash: truncated segment body")
	// ErrSegmentAbandoned marks a segment given up after the retry
	// budget (including rung downgrades) was exhausted; the session
	// terminates with this error rather than hanging or mis-reporting.
	ErrSegmentAbandoned = errors.New("httpdash: segment abandoned after retries")
	// ErrCircuitOpen marks a fetch attempt refused locally because the
	// host's circuit breaker is open — the host is failing and hammering
	// it would deepen the overload. The attempt burns retry budget (and
	// keeps downgrading the rung) without touching the network.
	ErrCircuitOpen = errors.New("httpdash: circuit breaker open")
)

// statusError is a non-2xx response; 5xx are retryable, 4xx are not
// (the request itself is wrong, retrying cannot help). retryAfter
// carries the server's Retry-After hint when one was attached (a
// shedding server says when it is worth coming back).
type statusError struct {
	code       int
	status     string
	retryAfter time.Duration
}

func (e *statusError) Error() string { return "status " + e.status }

// parseRetryAfter reads a response's Retry-After header (delay-seconds
// form; the HTTP-date form is not used by this package's servers).
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// RetryPolicy bounds how hard the client fights for each segment.
type RetryPolicy struct {
	// MaxAttempts is the per-segment fetch budget (>= 1; 1 means no
	// retries).
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline; it converts a stalled
	// transfer into a retryable timeout. Zero disables it.
	AttemptTimeout time.Duration
	// BackoffBase is the first retry's backoff; each further retry
	// doubles it up to BackoffMax. Jitter multiplies the wait by a
	// deterministic draw in [0.5, 1), so synchronized clients desync
	// without making runs irreproducible.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter stream (splitmix64).
	JitterSeed int64
	// DowngradeOnRetry steps the fetch one ladder rung down per retry,
	// degrading toward the cheapest rendition before giving up.
	DowngradeOnRetry bool
}

// DefaultRetryPolicy is the resilient configuration the chaos suite
// runs under: four attempts, 10 s per attempt, 50 ms–2 s backoff, and
// degrade-before-abandon.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      4,
		AttemptTimeout:   10 * time.Second,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       2 * time.Second,
		DowngradeOnRetry: true,
	}
}

func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 1 {
		return errors.New("httpdash: MaxAttempts must be at least 1")
	}
	if p.AttemptTimeout < 0 || p.BackoffBase < 0 || p.BackoffMax < 0 {
		return errors.New("httpdash: negative retry durations")
	}
	return nil
}

// NewTransport returns an http.Transport tuned for this package's
// traffic shape: many small GETs against one host. It is the stock
// transport with the per-host idle pool widened (the default keeps
// only two idle connections per host, so concurrent prefetches and
// load-generator workers would re-dial instead of reusing keep-alive
// connections) and no global idle cap. Both the streaming client and
// cmd/loadgen dial through it by default.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // unlimited; the per-host cap below governs
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// Client streams a DASH presentation over real HTTP, driving an
// abr.Algorithm with measured per-segment throughputs. Playback is
// virtual: wall-clock time is only spent downloading, and buffered
// content "plays out" instantly once the buffer reaches the pacing
// threshold — so a full session finishes in seconds while still
// exercising the real network path, the manifest parsing, and the
// adaptation loop.
//
// Construct with NewClient; the zero value is unusable.
type Client struct {
	baseURL    string
	httpClient *http.Client
	algorithm  abr.Algorithm
	threshold  float64
	retry      RetryPolicy
	breaker    *Breaker      // nil = no circuit breaking
	fetchAhead int           // prefetch window; 0 = one segment in flight
	jitter     atomic.Uint64 // splitmix64 state for backoff jitter
	tel        clientTelemetry
	telReg     *telemetry.Registry
	tracer     *tracing.Tracer // nil = tracing disabled (zero overhead)
}

// clientTelemetry mirrors the Stats resilience counters into a
// registry. All fields are nil without WithClientTelemetry; nil
// metrics are no-ops, so the fetch loop updates them unconditionally.
type clientTelemetry struct {
	segments   *telemetry.Counter
	bytes      *telemetry.Counter
	retries    *telemetry.Counter
	downgrades *telemetry.Counter
	timeouts   *telemetry.Counter
	truncated  *telemetry.Counter
	abandoned  *telemetry.Counter
	fastFails  *telemetry.Counter
	stallSec   *telemetry.Gauge
}

// WithHTTPClient overrides the default http.Client.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.httpClient = hc
		}
	}
}

// WithBufferThreshold overrides the 30 s pacing threshold.
func WithBufferThreshold(sec float64) ClientOption {
	return func(c *Client) {
		if sec > 0 {
			c.threshold = sec
		}
	}
}

// WithFetchAhead widens the fetch window: while segment k is being
// played, up to n further segments (k+1 … k+n) download concurrently,
// so per-request latency and server think-time hide behind playout
// instead of serialising in front of it. Results are consumed strictly
// in segment order and every segment is fetched by exactly one window
// slot under its own retry budget. A prefetched segment's rung is
// decided at issue time — from the throughput observed so far and the
// buffer the in-flight segments will have produced — which is the
// information a real look-ahead player has. Zero (the default) is a
// window of one segment: the strictly serial loop.
func WithFetchAhead(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.fetchAhead = n
		}
	}
}

// WithRetryPolicy enables resilient fetching. Without this option the
// client keeps the strict single-attempt behaviour (any fetch failure
// ends the session), which is what the deterministic integration tests
// rely on.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) {
		c.retry = p
	}
}

// WithCircuitBreaker puts a circuit breaker in front of the client's
// host: once the windowed failure rate trips it, attempts fail fast
// (no network traffic) until the cool-down elapses and probe requests
// prove the host healthy again. Fast-failed attempts still burn retry
// budget and still downgrade the rung under RetryPolicy — a braking
// server pushes sessions down the ladder instead of into abandonment.
// Zero config fields take DefaultBreakerConfig values.
func WithCircuitBreaker(cfg BreakerConfig) ClientOption {
	return func(c *Client) {
		c.breaker = NewBreaker(cfg)
	}
}

// WithSharedBreaker installs an existing breaker, so a fleet of
// clients streaming from the same host shares one view of its health:
// the first sessions to see the host fall over open the circuit for
// everyone. Nil is ignored.
func WithSharedBreaker(b *Breaker) ClientOption {
	return func(c *Client) {
		if b != nil {
			c.breaker = b
		}
	}
}

// WithClientTelemetry mirrors the client's resilience counters into a
// telemetry registry:
//
//	httpdash_client_segments_total    segments fetched successfully
//	httpdash_client_bytes_total       segment payload bytes received
//	httpdash_client_retries_total     re-attempted fetches
//	httpdash_client_downgrades_total  rung step-downs while retrying
//	httpdash_client_timeouts_total    per-attempt deadline hits
//	httpdash_client_truncated_total   short bodies rejected
//	httpdash_client_abandoned_total   segments given up after retries
//	httpdash_client_stall_seconds     cumulative virtual-playback stall
//
// With a circuit breaker configured (in either option order) the
// breaker series are added:
//
//	httpdash_client_breaker_state             0 closed / 1 open / 2 half-open
//	httpdash_client_breaker_opens_total       closed/half-open → open trips
//	httpdash_client_breaker_fast_fails_total  attempts refused while open
//
// A nil registry is a no-op. Multiple clients sharing one registry
// share the series — the counters describe the fleet. The option only
// records the registry; series are wired after all options applied, so
// it composes with WithCircuitBreaker in any order.
func WithClientTelemetry(reg *telemetry.Registry) ClientOption {
	return func(c *Client) {
		c.telReg = reg
	}
}

// wireTelemetry registers the client's series on the recorded registry.
// It runs once in NewClient, after every option has applied — the
// breaker mirrors exist exactly when both WithClientTelemetry and a
// breaker option were given, in either order.
func (c *Client) wireTelemetry() {
	reg := c.telReg
	if reg == nil {
		return
	}
	c.tel = clientTelemetry{
		segments:   reg.Counter("httpdash_client_segments_total", "Segments fetched successfully."),
		bytes:      reg.Counter("httpdash_client_bytes_total", "Segment payload bytes received."),
		retries:    reg.Counter("httpdash_client_retries_total", "Re-attempted fetches, manifest and segments."),
		downgrades: reg.Counter("httpdash_client_downgrades_total", "Ladder rung step-downs applied while retrying."),
		timeouts:   reg.Counter("httpdash_client_timeouts_total", "Fetch attempts that hit the per-attempt deadline."),
		truncated:  reg.Counter("httpdash_client_truncated_total", "Fetch attempts rejected for a short body."),
		abandoned:  reg.Counter("httpdash_client_abandoned_total", "Segments abandoned after the retry budget ran out."),
		stallSec:   reg.Gauge("httpdash_client_stall_seconds", "Cumulative virtual-playback stall time."),
		fastFails: reg.Counter("httpdash_client_breaker_fast_fails_total",
			"Fetch attempts refused locally by an open circuit breaker."),
	}
	if c.breaker != nil {
		c.breaker.telState = reg.Gauge("httpdash_client_breaker_state",
			"Circuit breaker position: 0 closed, 1 open, 2 half-open.")
		c.breaker.telOpens = reg.Counter("httpdash_client_breaker_opens_total",
			"Circuit breaker trips (transitions to open).")
	}
}

// WithTracing records one trace per segment fetch: a root span with
// child spans for every retry attempt, backoff sleep, breaker
// fast-fail, and prefetch-pipeline wait, and a W3C `traceparent`
// header on every segment request so a tracing-enabled server joins
// the same trace. A nil tracer keeps tracing disabled at zero cost —
// the nil-receiver contract makes every span call a no-op.
func WithTracing(tr *tracing.Tracer) ClientOption {
	return func(c *Client) {
		c.tracer = tr
	}
}

// NewClient returns a streaming client for the presentation at
// baseURL (serving /manifest.mpd), adapting with the given algorithm.
func NewClient(baseURL string, alg abr.Algorithm, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("httpdash: empty base URL")
	}
	if alg == nil {
		return nil, errors.New("httpdash: nil algorithm")
	}
	c := &Client{
		baseURL:    baseURL,
		httpClient: &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()},
		algorithm:  alg,
		threshold:  player.DefaultBufferThresholdSec,
		retry:      RetryPolicy{MaxAttempts: 1},
	}
	applyOptions(c, opts)
	if err := c.retry.validate(); err != nil {
		return nil, err
	}
	c.jitter.Store(uint64(c.retry.JitterSeed))
	c.wireTelemetry()
	return c, nil
}

// Fetch records one segment download.
type Fetch struct {
	// Segment is the segment number.
	Segment int
	// Rung is the ladder rung actually fetched (after any retry
	// downgrades).
	Rung int
	// ChosenRung is the rung the algorithm asked for.
	ChosenRung int
	// Attempts is the fetch count for this segment (1 = clean).
	Attempts int
	// BitrateMbps is the fetched rung's bitrate.
	BitrateMbps float64
	// Bytes is the payload size.
	Bytes int64
	// WallTime is the download duration of the successful attempt.
	WallTime time.Duration
	// ThroughputMbps is the measured download rate.
	ThroughputMbps float64
}

// Stats summarises a streamed session.
type Stats struct {
	// Fetches logs every successfully downloaded segment.
	Fetches []Fetch
	// TotalBytes is the summed payload.
	TotalBytes int64
	// MeanThroughputMbps is the byte-weighted mean download rate.
	MeanThroughputMbps float64
	// MeanBitrateMbps is the mean selected bitrate.
	MeanBitrateMbps float64
	// Switches counts rung changes.
	Switches int
	// StallSec is the virtual-playback stall time (download slower
	// than drain while the buffer was empty).
	StallSec float64

	// Resilience counters. Retries, Timeouts and FastFails count
	// manifest attempts as well as segment attempts; with a
	// single-attempt policy Retries and Downgrades stay zero.

	// Retries counts re-attempted fetches across the session.
	Retries int
	// Downgrades counts rung step-downs applied while retrying.
	Downgrades int
	// Timeouts counts attempts that hit the per-attempt deadline.
	Timeouts int
	// Truncations counts attempts rejected for a short body.
	Truncations int
	// FastFails counts attempts refused locally by an open circuit
	// breaker — retry budget spent without touching the network.
	FastFails int
	// AbandonedSegments counts segments whose retry budget ran out.
	// The session ends at the first abandonment, so this is 0 or 1
	// without WithFetchAhead; with a prefetch window, segments in
	// flight alongside the fatal one can each abandon before the
	// pipeline is torn down.
	AbandonedSegments int
}

// fetchCounters is one fetch's slice of the session resilience
// counters. Each fetch — the manifest or a segment — accumulates
// privately and is folded into Stats exactly once (segments in
// consumption order), so concurrent prefetches never race on the
// session totals and never double-count.
type fetchCounters struct {
	retries     int
	downgrades  int
	timeouts    int
	truncations int
	fastFails   int
	abandoned   int
}

// merge folds one fetch's counters into the session totals and into
// the telemetry mirror. It is the only place either is updated, so
// the registry and Stats always agree.
func (c *Client) merge(s *Stats, fc fetchCounters) {
	if fc == (fetchCounters{}) {
		return
	}
	s.Retries += fc.retries
	s.Downgrades += fc.downgrades
	s.Timeouts += fc.timeouts
	s.Truncations += fc.truncations
	s.FastFails += fc.fastFails
	s.AbandonedSegments += fc.abandoned
	c.tel.retries.Add(int64(fc.retries))
	c.tel.downgrades.Add(int64(fc.downgrades))
	c.tel.timeouts.Add(int64(fc.timeouts))
	c.tel.truncated.Add(int64(fc.truncations))
	c.tel.fastFails.Add(int64(fc.fastFails))
	c.tel.abandoned.Add(int64(fc.abandoned))
}

// segmentSizesMB estimates per-rung segment sizes from the ladder (an
// MPD carries nominal bitrates, not exact sizes) — enough for
// size-aware policies like the paper's online algorithm to run over
// real HTTP.
func segmentSizesMB(info manifestInfo) []float64 {
	sizes := make([]float64, len(info.Ladder))
	for j, r := range info.Ladder {
		sizes[j] = r.BitrateMbps * info.SegmentSec / 8
	}
	return sizes
}

// Stream downloads the whole presentation. The context cancels the
// session between segment fetches and aborts in-flight requests.
//
// The session is one loop — decide, download, observe, play — with up
// to fetchAhead+1 segments in flight: the play-head segment plus the
// prefetch window. Segments are issued strictly in segment order from
// this goroutine and consumed strictly in segment order, so the
// algorithm, which is not safe for concurrent use, only ever runs
// here. Without WithFetchAhead the window holds one segment and the
// loop is strictly serial. Buffer drain is the real elapsed wall time
// between consecutive consumptions, so whatever part of a download
// the window hid behind earlier segments does not drain the buffer.
//
// On failure Stream returns the partial Stats alongside the error, so
// callers can still read the resilience counters.
func (c *Client) Stream(ctx context.Context) (*Stats, error) {
	stats := &Stats{}
	info, err := c.fetchManifest(ctx, stats)
	if err != nil {
		return stats, err
	}
	c.algorithm.Reset()
	sizesMB := segmentSizesMB(info)

	// Fetches run under a child context so tearing the pipeline down
	// (error, cancellation) aborts every in-flight request promptly.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type inflight struct {
		seg, chosen int
		ch          chan segmentResult
		span        *tracing.Span // nil when tracing is disabled
	}
	depth := c.fetchAhead + 1
	pending := make(chan inflight, depth)

	// drain aborts and collects every outstanding fetch, folding its
	// counters in: retry work already performed stays counted exactly
	// once even when the session dies mid-pipeline.
	drain := func() {
		cancel()
		for {
			select {
			case f := <-pending:
				res := <-f.ch
				c.merge(stats, res.counters)
				f.span.SetError(res.err)
				f.span.End()
			default:
				return
			}
		}
	}

	bufferSec := 0.0
	prevRung := -1   // last consumed rung (switch accounting)
	prevIssued := -1 // PrevRung of the next decision
	var weighted, brSum float64
	next := 0
	lastConsume := time.Now()

	for played := 0; played < info.SegmentCount; played++ {
		for len(pending) < depth && next < info.SegmentCount {
			if err := ctx.Err(); err != nil {
				drain()
				return stats, fmt.Errorf("httpdash: cancelled at segment %d: %w", next, err)
			}
			// Decide with the buffer the in-flight segments will have
			// produced by the time this one is needed; once the buffer
			// passes the threshold, playback drains it to just under.
			projected := bufferSec + float64(len(pending))*info.SegmentSec
			if projected >= c.threshold {
				projected = c.threshold - info.SegmentSec
			}
			decision := abr.Context{
				SegmentIndex:       next,
				Ladder:             info.Ladder,
				SegmentSizesMB:     sizesMB,
				SegmentDurationSec: info.SegmentSec,
				PrevRung:           prevIssued,
				BufferSec:          projected,
				BufferThresholdSec: c.threshold,
			}
			chosen, err := c.algorithm.ChooseRung(decision)
			if err != nil {
				drain()
				return stats, fmt.Errorf("httpdash: segment %d decision: %w", next, err)
			}
			if chosen < 0 || chosen >= len(info.Ladder) {
				drain()
				return stats, fmt.Errorf("httpdash: segment %d: rung %d out of range", next, chosen)
			}
			f := inflight{seg: next, chosen: chosen, ch: make(chan segmentResult, 1)}
			f.span = c.tracer.StartRoot("fetch_segment")
			f.span.SetAttrInt("segment", int64(next))
			f.span.SetAttrInt("chosen_rung", int64(chosen))
			go func() { f.ch <- c.fetchSegmentWithRetry(fctx, info, f.seg, f.chosen, f.span) }()
			pending <- f
			prevIssued = chosen
			next++
		}

		f := <-pending
		res := <-f.ch
		c.merge(stats, res.counters)
		if res.err != nil {
			f.span.SetError(res.err)
			f.span.End()
			drain()
			return stats, fmt.Errorf("httpdash: segment %d: %w", f.seg, res.err)
		}
		// Once the last issued segment is consumed, the next decision
		// sees the rung actually fetched, after any retry downgrade —
		// at depth 1 that is every segment, as in a serial player.
		if f.seg == next-1 {
			prevIssued = res.rung
		}
		// The gap between the fetch finishing and the play-head reaching
		// it is the prefetch win; record it as a span so slow-trace
		// breakdowns distinguish network time from pipeline idle time.
		if f.span != nil {
			wait := f.span.StartChildAt("pipeline_wait", res.ready)
			wait.End()
			f.span.SetAttrInt("rung", int64(res.rung))
			f.span.SetAttrInt("bytes", res.bytes)
			f.span.SetAttrInt("attempts", int64(res.attempts))
			f.span.End()
		}
		thMbps := float64(res.bytes) * 8 / 1e6 / res.wall.Seconds()
		c.algorithm.ObserveDownload(thMbps)

		// Virtual playback against real elapsed time; stalls accrue
		// when the buffer runs dry.
		if bufferSec >= c.threshold {
			bufferSec = c.threshold - info.SegmentSec
		}
		now := time.Now()
		drained := now.Sub(lastConsume).Seconds()
		lastConsume = now
		if drained > bufferSec {
			stats.StallSec += drained - bufferSec
			c.tel.stallSec.Add(drained - bufferSec)
			bufferSec = 0
		} else {
			bufferSec -= drained
		}
		bufferSec += info.SegmentSec

		br := info.Ladder[res.rung].BitrateMbps
		stats.Fetches = append(stats.Fetches, Fetch{
			Segment:        f.seg,
			Rung:           res.rung,
			ChosenRung:     f.chosen,
			Attempts:       res.attempts,
			BitrateMbps:    br,
			Bytes:          res.bytes,
			WallTime:       res.wall,
			ThroughputMbps: thMbps,
		})
		stats.TotalBytes += res.bytes
		c.tel.segments.Inc()
		c.tel.bytes.Add(res.bytes)
		weighted += thMbps * float64(res.bytes)
		brSum += br
		if prevRung >= 0 && res.rung != prevRung {
			stats.Switches++
		}
		prevRung = res.rung
	}
	if stats.TotalBytes > 0 {
		stats.MeanThroughputMbps = weighted / float64(stats.TotalBytes)
	}
	if n := len(stats.Fetches); n > 0 {
		stats.MeanBitrateMbps = brSum / float64(n)
	}
	return stats, nil
}

// segmentResult is one segment fetch's outcome, handed from its
// goroutine to the consuming loop.
type segmentResult struct {
	rung, attempts int
	bytes          int64
	wall           time.Duration // download time of the successful attempt
	err            error
	counters       fetchCounters
	ready          time.Time // when the fetch finished (pipeline-wait accounting)
}

// fetchSegmentWithRetry downloads segment seg under fetchWithRetry,
// starting at the algorithm's chosen rung. When the budget runs out
// the segment is abandoned: the error wraps ErrSegmentAbandoned.
func (c *Client) fetchSegmentWithRetry(ctx context.Context, info manifestInfo, seg, chosen int, span *tracing.Span) segmentResult {
	var res segmentResult
	rung, attempts, exhausted, err := c.fetchWithRetry(ctx, &res.counters, span, chosen,
		func(ctx context.Context, rung int, att *tracing.Span) error {
			url := fmt.Sprintf("%s/seg/%s/%d.m4s", c.baseURL, info.RepIDs[rung], seg)
			start := time.Now()
			n, err := c.fetchSegment(ctx, url, att.TraceParent())
			res.bytes, res.wall = n, time.Since(start)
			if err == nil {
				att.SetAttrInt("bytes", n)
			}
			return err
		})
	if exhausted {
		res.counters.abandoned++
		err = fmt.Errorf("%w (rung %d after %d attempts): %w", ErrSegmentAbandoned, rung, attempts, err)
	}
	res.rung, res.attempts, res.err, res.ready = rung, attempts, err, time.Now()
	return res
}

// fetchWithRetry is the one retry loop, for the manifest and for
// segments alike. It calls attempt — one request at the given rung,
// under the per-attempt deadline — until it succeeds, applying
// exponential backoff with deterministic jitter (stretched to any
// server Retry-After hint) between attempts. Under DowngradeOnRetry
// each retry steps rung one ladder rung down until the floor; the
// manifest has no ladder and passes rung 0, so it never downgrades.
// With a breaker configured, attempts against an open circuit fail
// fast without network traffic — still burning budget and
// downgrading, so a braking server degrades the session's quality
// rather than killing it. A 4xx answer is final: the request itself
// is wrong and retrying cannot help.
//
// It returns the rung of the last attempt, the attempt count, whether
// the budget ran out, and the error: on exhaustion, the last attempt's
// failure. Resilience events accumulate into fc, private to this fetch
// (the caller folds them into Stats). Under a non-nil span the fight
// leaves a trace: one child span per attempt (carrying the traceparent
// the server joins under), backoff sleep, and breaker fast-fail.
func (c *Client) fetchWithRetry(ctx context.Context, fc *fetchCounters, span *tracing.Span, rung int,
	attempt func(ctx context.Context, rung int, att *tracing.Span) error) (int, int, bool, error) {
	var err error
	var hint time.Duration // Retry-After or breaker cool-down, consumed by the next backoff
	for try := 0; try < c.retry.MaxAttempts; try++ {
		attempts := try + 1
		if try > 0 {
			fc.retries++
			if c.retry.DowngradeOnRetry && rung > 0 {
				rung--
				fc.downgrades++
			}
			bo := span.StartChild("backoff")
			bo.SetAttrDuration("hint", hint)
			if err := c.backoff(ctx, try, hint); err != nil {
				bo.SetError(err)
				bo.End()
				return rung, attempts, false, err
			}
			bo.End()
			hint = 0
		}

		// Fail fast against an open breaker: no request is issued, the
		// cool-down becomes the next backoff's floor.
		if c.breaker != nil {
			if ok, wait := c.breaker.Allow(); !ok {
				fc.fastFails++
				hint = wait
				ff := span.StartChild("breaker_fast_fail")
				ff.SetAttrDuration("cool_down", wait)
				ff.SetStatus("fast_fail", "circuit open")
				ff.End()
				err = fmt.Errorf("%w (cooling down %v)", ErrCircuitOpen, wait)
				continue
			}
		}

		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if c.retry.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, c.retry.AttemptTimeout)
		}
		att := span.StartChild("attempt")
		att.SetAttrInt("try", int64(attempts))
		att.SetAttrInt("rung", int64(rung))
		err = attempt(attemptCtx, rung, att)
		deadlineHit := attemptCtx.Err() != nil // read before cancel() taints it
		cancel()
		if err == nil {
			if c.breaker != nil {
				c.breaker.Record(true)
			}
			att.End()
			return rung, attempts, false, nil
		}
		att.SetError(err)
		att.End()
		// The caller's context ending is a session cancellation, never a
		// retryable fault — and it says nothing about the host's health,
		// so the breaker's probe slot is released without an outcome.
		if ctx.Err() != nil {
			if c.breaker != nil {
				c.breaker.drop()
			}
			return rung, attempts, false, fmt.Errorf("cancelled mid-download: %w", ctx.Err())
		}
		var se *statusError
		isClientErr := errors.As(err, &se) && se.code < 500
		if c.breaker != nil {
			// Any response proves the host alive (4xx included); transport
			// errors, timeouts, truncations, and 5xx count against it.
			c.breaker.Record(isClientErr)
		}
		switch {
		case deadlineHit:
			fc.timeouts++
		case errors.Is(err, ErrTruncated):
			fc.truncations++
		case isClientErr:
			return rung, attempts, false, err
		}
		if se != nil && se.retryAfter > 0 {
			hint = se.retryAfter
		}
	}
	return rung, c.retry.MaxAttempts, true, err
}

// backoff sleeps for the attempt's jittered exponential backoff — or
// for the server's Retry-After hint when that is longer — and returns
// early the moment the session context ends, including when it was
// already cancelled on entry.
func (c *Client) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cancelled during backoff: %w", err)
	}
	var d time.Duration
	if c.retry.BackoffBase > 0 {
		d = c.retry.BackoffBase
		for i := 1; i < attempt && d < c.retry.BackoffMax; i++ {
			d *= 2
		}
		if c.retry.BackoffMax > 0 && d > c.retry.BackoffMax {
			d = c.retry.BackoffMax
		}
		// Equal jitter from a private splitmix64 stream: deterministic for a
		// fixed JitterSeed, in [d/2, d). The state advances atomically so
		// concurrent prefetches each take a distinct draw from the stream.
		z := c.jitter.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		u := float64((z^(z>>31))>>11) / (1 << 53)
		d = d/2 + time.Duration(u*float64(d/2))
	}
	// A shedding server's Retry-After (or an open breaker's remaining
	// cool-down) floors the wait: coming back sooner would only be shed
	// again.
	if hint > d {
		d = hint
	}
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("cancelled during backoff: %w", ctx.Err())
	case <-timer.C:
		return nil
	}
}

// fetchManifest GETs and parses /manifest.mpd under fetchWithRetry —
// the segments' budget and breaker, without downgrades — folding its
// resilience counters into stats.
func (c *Client) fetchManifest(ctx context.Context, stats *Stats) (manifestInfo, error) {
	var info manifestInfo
	var fc fetchCounters
	_, _, _, err := c.fetchWithRetry(ctx, &fc, nil, 0, func(ctx context.Context, _ int, _ *tracing.Span) error {
		var err error
		info, err = c.fetchManifestOnce(ctx)
		return err
	})
	c.merge(stats, fc)
	if err != nil {
		return info, fmt.Errorf("httpdash: manifest: %w", err)
	}
	return info, nil
}

func (c *Client) fetchManifestOnce(ctx context.Context) (manifestInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/manifest.mpd", nil)
	if err != nil {
		return manifestInfo{}, fmt.Errorf("build request: %w", err)
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return manifestInfo{}, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return manifestInfo{}, &statusError{code: resp.StatusCode, status: resp.Status, retryAfter: parseRetryAfter(resp)}
	}
	return parseManifest(resp.Body)
}

// fetchSegment GETs one media segment, discarding the payload. A body
// shorter than the advertised Content-Length — whether it ends in a
// clean EOF or a torn connection — surfaces as ErrTruncated instead of
// being silently accepted as a smaller segment. A non-empty tp is sent
// as the W3C traceparent header, so a tracing server records its half
// of the request under the same trace ID.
func (c *Client) fetchSegment(ctx context.Context, url, tp string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, fmt.Errorf("build request: %w", err)
	}
	if tp != "" {
		req.Header.Set(tracing.Header, tp)
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{code: resp.StatusCode, status: resp.Status, retryAfter: parseRetryAfter(resp)}
	}
	n, err := io.Copy(io.Discard, resp.Body)
	want := resp.ContentLength
	if err != nil {
		if want >= 0 && n < want {
			return 0, fmt.Errorf("%w: %d of %d bytes (%v)", ErrTruncated, n, want, err)
		}
		return 0, fmt.Errorf("read body: %w", err)
	}
	if want >= 0 && n != want {
		return 0, fmt.Errorf("%w: %d of %d bytes", ErrTruncated, n, want)
	}
	return n, nil
}
