package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildGoldenRegistry assembles one of every family shape with fixed
// values, so the exposition is fully deterministic.
func buildGoldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests served.")
	c.Add(42)
	g := r.Gauge("queue_depth", "Current queue depth.")
	g.Set(3.5)
	r.GaugeFunc("uptime_ratio", "Derived at scrape time.", func() float64 { return 0.25 })
	r.CounterFunc("evictions_total", "Read at scrape time.", func() float64 { return 9 })
	v := r.CounterVec("rung_requests_total", "Requests per ladder rung.", "rung")
	v.With("0").Add(7)
	v.With("3").Add(2)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	return r
}

// TestPrometheusGolden pins the exact text exposition byte-for-byte:
// HELP/TYPE ordering, label rendering, cumulative histogram buckets,
// and float formatting are all contract surface for scrapers.
func TestPrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildGoldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP requests_total Total requests served.
# TYPE requests_total counter
requests_total 42
# HELP queue_depth Current queue depth.
# TYPE queue_depth gauge
queue_depth 3.5
# HELP uptime_ratio Derived at scrape time.
# TYPE uptime_ratio gauge
uptime_ratio 0.25
# HELP evictions_total Read at scrape time.
# TYPE evictions_total counter
evictions_total 9
# HELP rung_requests_total Requests per ladder rung.
# TYPE rung_requests_total counter
rung_requests_total{rung="0"} 7
rung_requests_total{rung="3"} 2
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) `)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|NaN|\+Inf|-Inf)$`)
)

// TestPrometheusWellFormed parses the exposition line by line: every
// sample must follow a HELP and TYPE pair for its family, names must
// be legal, and no series key (name + labels) may repeat.
func TestPrometheusWellFormed(t *testing.T) {
	var sb strings.Builder
	if err := buildGoldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if helped[m[1]] {
				t.Errorf("duplicate HELP for %s", m[1])
			}
			helped[m[1]] = true
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := typed[m[1]]; dup {
				t.Errorf("duplicate TYPE for %s", m[1])
			}
			typed[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable line: %q", line)
			continue
		}
		name, labels := m[1], m[2]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Errorf("sample %s appears before its HELP/TYPE", name)
		}
		key := name + labels
		if seen[key] {
			t.Errorf("duplicate series %s", key)
		}
		seen[key] = true
		if _, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64); err != nil && m[3] != "NaN" {
			t.Errorf("sample %s has unparseable value %q", name, m[3])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONExposition(t *testing.T) {
	var sb strings.Builder
	if err := buildGoldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var families []struct {
		Name   string `json:"name"`
		Type   string `json:"type"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Count  int64             `json:"count"`
			Sum    float64           `json:"sum"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &families); err != nil {
		t.Fatalf("JSON exposition does not parse: %v", err)
	}
	byName := map[string]int{}
	for i, f := range families {
		byName[f.Name] = i
	}
	if f := families[byName["requests_total"]]; f.Series[0].Value != 42 {
		t.Errorf("requests_total = %v, want 42", f.Series[0].Value)
	}
	if f := families[byName["rung_requests_total"]]; len(f.Series) != 2 || f.Series[0].Labels["rung"] != "0" {
		t.Errorf("rung_requests_total series malformed: %+v", f.Series)
	}
	if f := families[byName["latency_seconds"]]; f.Series[0].Count != 3 {
		t.Errorf("latency_seconds count = %d, want 3", f.Series[0].Count)
	}
}

// TestHandlerEndpoints exercises the full mux: both expositions plus
// the pprof and expvar debug surfaces.
func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(buildGoldenRegistry().Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return readAll(t, resp), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "requests_total 42") {
		t.Errorf("/metrics missing counter sample:\n%s", body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}

	body, ct = get("/metrics.json")
	if !strings.Contains(body, `"requests_total"`) || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics.json malformed (content type %q):\n%s", ct, body)
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
	if body, _ = get("/debug/pprof/heap?debug=1"); !strings.Contains(body, "heap") {
		t.Error("/debug/pprof/heap not served")
	}
	if body, _ = get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Error("/debug/vars missing memstats")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
