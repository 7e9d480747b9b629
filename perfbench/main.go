// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks every output the workload produces, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with the benchmark's own
// probes reduced to what those metrics need. --trace 1 repeats that
// measurement, then runs the workload again with timing wrappers around
// every layer seam and reports the per-layer metrics, a tracing-overhead
// line, and the recorded spans as NDJSON under .bench_out/. Any failed
// check exits 1 without a result. See README.md for the workloads and
// the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0
// (a count of zero, or a percentile over no samples).
var layerMetrics = []struct{ name, unit string }{
	{"abr.choose.calls", "count"},
	{"abr.choose.busy_s", "s"},
	{"abr.choose.p50_ns", "ns"},
	{"core.online.choose.p50_ns", "ns"},
	{"abr.observe.busy_s", "s"},
	{"sim.self_busy_s", "s"},
	{"trace.compile_ms", "ms"},
	{"dash.manifest_ms", "ms"},
	{"campaign.sessions", "count"},
	{"campaign.abandoned", "count"},
	{"campaign.outage_sessions", "count"},
	{"httpdash.client.session.p50_ms", "ms"},
	{"httpdash.client.manifest.p50_us", "us"},
	{"httpdash.client.self_busy_s", "s"},
	{"net.ttfb.p50_us", "us"},
	{"net.self.p50_us", "us"},
	{"httpdash.server.handler.p50_us", "us"},
	{"httpdash.server.handler.p99_us", "us"},
	{"httpdash.server.handler.busy_s", "s"},
	{"httpdash.server.requests", "count"},
	{"httpdash.server.queued", "count"},
	{"httpdash.server.shed", "count"},
	{"httpdash.edge.hit.p50_us", "us"},
	{"httpdash.edge.hit.p99_us", "us"},
	{"httpdash.edge.fill.p50_us", "us"},
	{"httpdash.edge.fill.p99_us", "us"},
	{"httpdash.edge.fill_self.p50_us", "us"},
	{"edgecache.hit_ratio", "ratio"},
	{"edgecache.evictions", "count"},
	{"httpdash.edge.fills", "count"},
	{"httpdash.edge.shared_fills", "count"},
	{"httpdash.edge.errors", "count"},
	{"tracing.fragments_seen", "count"},
	{"tracing.fragments_kept", "count"},
	{"bench.send_lag.p99_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
}

// latencyTail is the tail quantile the bounded latency metric reports.
// A p99 on a shared 2-vCPU host follows the host's load rather than
// the program (README.md), so the bound sits on the p90 and the p99 is
// printed beside it.
const latencyTail = 0.9

// phase is one timed measurement of a workload: the end-to-end figures
// plus the runtime counters per-layer reporting borrows.
type phase struct {
	sessionsPerS float64
	segmentsPerS float64
	goodputMBps  float64
	lat          summary // ms, tail at latencyTail
	p99          summary // ms, printed only
	cpuPerOpUS   float64
	allocPerOp   float64
	gcCycles     uint32
	attempted    int64
}

// newPhase derives rates from a closed window and latency from its
// windows of samples: ops is the CPU and allocation denominator (a
// session for campaign, a segment otherwise).
func newPhase(w *window, sessions, segments, bytes, ops int64, lat [][]float64) phase {
	s := w.wall.Seconds()
	return phase{
		sessionsPerS: float64(sessions) / s,
		segmentsPerS: float64(segments) / s,
		goodputMBps:  float64(bytes) / 1e6 / s,
		lat:          windowed(lat, latencyTail),
		p99:          windowed(lat, 0.99),
		cpuPerOpUS:   float64(w.cpuUse.Microseconds()) / float64(max(ops, 1)),
		allocPerOp:   float64(w.allocd) / float64(max(ops, 1)),
		gcCycles:     w.gcDone,
		attempted:    ops,
	}
}

func (p phase) endToEnd(setupS float64) metrics {
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("sessions_per_s", "1/s", p.sessionsPerS)
	m.set("segments_per_s", "1/s", p.segmentsPerS)
	m.set("goodput_MBps", "MB/s", p.goodputMBps)
	m.set("latency_p50_ms", "ms", p.lat.P50)
	m.set("latency_p90_ms", "ms", p.lat.Tail)
	m.set("cpu_us_per_op", "us", p.cpuPerOpUS)
	m.set("peak_rss_MB", "MB", peakRSSMB())
	return m
}

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload hands back once every check has passed.
type outcome struct {
	setupS float64
	main   phase
	traced *phase
	layers metrics
	spans  *spanLog
	notes  []string
}

// A workload's set-up runs at least setupReps times and until
// setupFor has passed; setup_s is the median. A set-up of a few
// milliseconds thus gets hundreds of samples, so one stalled set-up
// cannot move the median.
const (
	setupReps = 15
	setupFor  = time.Second
)

// repeatSetUp runs build repeatedly, tearing down every result but the
// last, and returns the last with the median build time in seconds.
// The heap is collected after each teardown, so peak RSS holds one
// set-up rather than however many the collector let pile up.
func repeatSetUp[T any](build func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var took []float64
	for start := time.Now(); len(took) < setupReps || time.Since(start) < setupFor; {
		if len(took) > 0 {
			if err := teardown(last); err != nil {
				return last, 0, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		last = v
	}
	return last, percentile(took, 0.5), nil
}

var workloads = map[string]func(config) (*outcome, error){
	"campaign":       runCampaign,
	"origin-players": runOriginPlayers,
	"edge-viewers":   runEdgeViewers,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: campaign, origin-players, or edge-viewers")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of each timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload campaign|origin-players|edge-viewers, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1

	out, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	e2e := out.main.endToEnd(out.setupS)
	// Any failed operation fails the run, so an accepted run's error
	// ratio is 0 of its attempted operations.
	fmt.Fprintf(stdout, "%s seed=%d procs=%d %s error_ratio=0/%d latency: n=%d over %d windows, tail=p%.4g, p%.4g=%.6gms\n",
		cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), formatMetrics(e2e), out.main.attempted,
		out.main.lat.N, out.main.lat.Windows, 100*out.main.lat.TailQ, 100*out.main.p99.TailQ, out.main.p99.Tail)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Attempted: out.main.attempted, Metrics: e2e}

	if cfg.trace {
		te := out.traced.endToEnd(out.setupS)
		fmt.Fprintf(stdout, "tracing overhead (traced vs untraced): %s\n", overhead(e2e, te))
		layers := metrics{}
		for _, l := range layerMetrics {
			layers.set(l.name, l.unit, 0)
		}
		layers.set("runtime.alloc_bytes_per_op", "B", out.main.allocPerOp)
		layers.set("runtime.gc_cycles", "count", float64(out.main.gcCycles))
		for k, v := range out.layers {
			if _, ok := layers[k]; !ok {
				fmt.Fprintf(stderr, "perfbench: undeclared layer metric %s\n", k)
				return 1
			}
			layers[k] = v
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "layers: %s\n", formatMetrics(layers))
		fmt.Fprintf(stdout, "spans: %d written to %s (%d dropped)\n", len(out.spans.spans), path, out.spans.dropped)
		res.Attempted += out.traced.attempted
		res.Metrics = layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func formatMetrics(m metrics) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g%s", k, m[k].Value, m[k].Unit)
	}
	return b.String()
}

// overhead renders each end-to-end metric's traced value against the
// untraced one.
func overhead(untraced, traced metrics) string {
	var parts []string
	for _, k := range []string{"sessions_per_s", "segments_per_s", "goodput_MBps", "latency_p50_ms", "latency_p90_ms", "cpu_us_per_op"} {
		u, t := untraced[k].Value, traced[k].Value
		change := 0.0
		if u != 0 {
			change = 100 * (t - u) / u
		}
		parts = append(parts, fmt.Sprintf("%s %.6g→%.6g (%+.1f%%)", k, u, t, change))
	}
	return strings.Join(parts, ", ")
}
