package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"ecavs/internal/tracing"
)

// formatFloat renders a sample value the way Prometheus expects:
// shortest representation, Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): one HELP and TYPE line per
// family, then its series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			label := ""
			switch {
			case f.labelKey != "":
				label = fmt.Sprintf(`{%s="%s"}`, f.labelKey, escapeLabel(s.labelValue))
			case s.constLabels != "":
				label = "{" + s.constLabels + "}"
			}
			switch {
			case s.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, label, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, label, formatFloat(s.gauge.Value()))
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, label, formatFloat(s.fn()))
			case s.hist != nil:
				writeHistogram(bw, f, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(bw *bufio.Writer, f *family, s *series) {
	h := s.hist
	// One consistent read per bucket; cumulative sums computed here.
	var cum int64
	prefix := f.name + "_bucket{"
	if f.labelKey != "" {
		prefix = fmt.Sprintf(`%s_bucket{%s="%s",`, f.name, f.labelKey, escapeLabel(s.labelValue))
	}
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(bw, `%sle="%s"} %d`+"\n", prefix, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(bw, `%sle="+Inf"} %d`+"\n", prefix, cum)
	suffix := ""
	if f.labelKey != "" {
		suffix = fmt.Sprintf(`{%s="%s"}`, f.labelKey, escapeLabel(s.labelValue))
	}
	fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(bw, "%s_count%s %d\n", f.name, suffix, cum)
}

// jsonSeries is one sample in the JSON exposition.
type jsonSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Count  int64             `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
}

// jsonFamily is one metric family in the JSON exposition.
type jsonFamily struct {
	Name   string       `json:"name"`
	Help   string       `json:"help"`
	Type   string       `json:"type"`
	Series []jsonSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON array of families — the
// machine-readable mirror of WritePrometheus for tooling that would
// rather not parse the text format.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.snapshot()
	out := make([]jsonFamily, 0, len(fams))
	for _, f := range fams {
		jf := jsonFamily{Name: f.name, Help: f.help, Type: string(f.kind), Series: []jsonSeries{}}
		for _, s := range f.series {
			js := jsonSeries{}
			switch {
			case f.labelKey != "":
				js.Labels = map[string]string{f.labelKey: s.labelValue}
			case s.labelMap != nil:
				js.Labels = s.labelMap
			}
			switch {
			case s.counter != nil:
				js.Value = float64(s.counter.Value())
			case s.gauge != nil:
				js.Value = s.gauge.Value()
			case s.fn != nil:
				js.Value = s.fn()
			case s.hist != nil:
				js.Count = s.hist.Count()
				js.Sum = s.hist.Sum()
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns the telemetry endpoint mux:
//
//	/metrics              Prometheus text exposition
//	/metrics.json         JSON exposition
//	/debug/pprof/*        CPU, heap, goroutine, ... profiles
//	/debug/vars           expvar (Go runtime memstats, cmdline)
//	/debug/traces         merged trace list (with AttachTraces)
//	/debug/traces/<id>    one merged trace, all spans
//	/debug/traces.ndjson  NDJSON trace export
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if ex := tracing.NewExplorer(r.traceStore()); ex != nil {
		mux.Handle("/debug/traces", ex)
		mux.Handle("/debug/traces/", ex)
		mux.Handle("/debug/traces.ndjson", ex)
	}
	return mux
}

// Serve starts the telemetry endpoint on addr in a background
// goroutine and returns the server (shut it down when done) and the
// bound address (useful with ":0"). The listener is up when Serve
// returns, so a scrape immediately after cannot race the bind. The
// standard process-identity series are registered on the way.
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	RegisterProcessMetrics(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
