package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSupportedQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		q    float64
	}{
		{0, 0.99, 0},
		{1000, 0.99, 0.99},
		{5000, 0.99, 0.99},
		{500, 0.99, 0.98},
		{100, 0.99, 0.9},
		{15, 0.99, 0.5}, // never below the median
		{1000, 0.5, 0.5},
	}
	for _, c := range cases {
		if got := supportedQuantile(c.n, c.want); got != c.q {
			t.Errorf("supportedQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.q)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSummarizeInterpolates(t *testing.T) {
	for _, c := range []struct {
		n          int
		p50, tail  float64
		tailQ      float64
		wantBeyond int
	}{
		{1000, 500.5, 990.01, 0.99, 10},
		{500, 250.5, 490.02, 0.98, 10},
		{2000, 1000.5, 1980.01, 0.99, 20},
	} {
		xs := seq(c.n)
		s := summarize(xs, 0.99)
		if s.N != c.n || !near(s.P50, c.p50) || !near(s.Tail, c.tail) || s.TailQ != c.tailQ {
			t.Errorf("n=%d: got %+v, want p50 %g tail %g at q %g", c.n, s, c.p50, c.tail, c.tailQ)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != c.wantBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.wantBeyond)
		}
	}
	if s := summarize(nil, 0.99); s != (summary{}) {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestWindowedTakesMediansAcrossWindows(t *testing.T) {
	calm := func() []float64 { return seq(1000) }
	stall := seq(1000)
	for i := 0; i < 50; i++ {
		stall[i] = 1e6 // a stall pushes 5% of one window far out
	}
	s := windowed([][]float64{calm(), stall, calm(), nil}, 0.99)
	if s.Windows != 3 || s.N != 3000 {
		t.Fatalf("got %d windows over %d samples, want 3 over 3000", s.Windows, s.N)
	}
	if !near(s.Tail, 990.01) || !near(s.P50, 500.5) {
		t.Errorf("windowed tail %g p50 %g, want the calm windows' 990.01 and 500.5", s.Tail, s.P50)
	}
}

func TestByWindowFoldsShortTail(t *testing.T) {
	at := []int64{0, 10, 99, 100, 150, 199, 200, 240}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := byWindow(at, vals, 0, 240, 100)
	want := [][]float64{{1, 2, 3}, {4, 5, 6, 7, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("byWindow = %v, want %v", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{20, 50}, {10, 30}, {90, 120}, {-5, 5}, {60, 60}}
	// Covered: [0,5) + [10,50) + [90,100) = 55.
	if got := covered(parent, children); got != 55 {
		t.Errorf("covered = %d, want 55", got)
	}
	if got := selfTime(parent, children); got != 45 {
		t.Errorf("selfTime = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {10, 20}}); got != 0 {
		t.Errorf("fully covered selfTime = %d, want 0", got)
	}
}

func TestClassifyFillsByKeyOverlap(t *testing.T) {
	edge := []keyed{
		{"a", interval{0, 10}},   // leader: overlaps the origin fetch of a
		{"a", interval{3, 12}},   // singleflight follower: also overlaps it
		{"a", interval{20, 30}},  // later request for a: a hit
		{"b", interval{0, 10}},   // overlaps only an origin request for a
		{"c", interval{40, 50}},  // its origin fetch ended before it arrived
		{"c", interval{60, 70}},  // touches an origin fetch at one instant only
		{"d", interval{80, 100}}, // two origin fetches overlap it
	}
	origin := []keyed{
		{"a", interval{2, 8}},
		{"c", interval{30, 40}},
		{"c", interval{70, 75}},
		{"d", interval{82, 85}},
		{"d", interval{84, 90}},
	}
	fill, overlaps := classifyFills(edge, origin)
	wantFill := []bool{true, true, false, false, false, false, true}
	if !reflect.DeepEqual(fill, wantFill) {
		t.Fatalf("fill = %v, want %v", fill, wantFill)
	}
	if got := selfTime(edge[0].interval, overlaps[0]); got != 4 {
		t.Errorf("leader fill self = %d, want 4", got)
	}
	if got := selfTime(edge[6].interval, overlaps[6]); got != 12 {
		t.Errorf("doubly overlapped fill self = %d, want 12", got)
	}
}

func TestRungPathsRepeatPerSeed(t *testing.T) {
	a := rungPath(7, 3, 200, 6)
	if !reflect.DeepEqual(a, rungPath(7, 3, 200, 6)) {
		t.Fatal("same seed and session gave different rung paths")
	}
	if reflect.DeepEqual(a, rungPath(8, 3, 200, 6)) || reflect.DeepEqual(a, rungPath(7, 4, 200, 6)) {
		t.Error("a different seed or session gave the same rung path")
	}
	for i, r := range a {
		if r < 0 || r >= 6 {
			t.Fatalf("rung %d out of range at segment %d", r, i)
		}
		if i > 0 && (r-a[i-1] > 1 || a[i-1]-r > 1) {
			t.Fatalf("walk jumped from %d to %d at segment %d", a[i-1], r, i)
		}
	}
}

func TestSchedulesRepeatPerSeed(t *testing.T) {
	const n, segs = 3000, 100
	dur := 5 * time.Second
	a := poissonSchedule(1, 4, n, dur, segs, edgeMix)
	if !reflect.DeepEqual(a, poissonSchedule(1, 4, n, dur, segs, edgeMix)) {
		t.Fatal("same seed gave different schedules")
	}
	b := poissonSchedule(2, 4, n, dur, segs, edgeMix)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != n || len(b) != n {
		t.Fatalf("schedule lengths %d and %d, want %d", len(a), len(b), n)
	}
	count := func(s []arrival) map[[2]int]int {
		m := map[[2]int]int{}
		for i, x := range s {
			if x.Due < 0 || x.Due >= dur || (i > 0 && x.Due < s[i-1].Due) {
				t.Fatalf("arrival %d due at %v: outside [0, %v) or out of order", i, x.Due, dur)
			}
			m[[2]int{x.Rung, x.Seg}]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Error("seeds changed the schedule's composition, not just its order")
	}
	if ca[[2]int{5, 0}] <= ca[[2]int{5, 40}] || ca[[2]int{5, 40}] <= ca[[2]int{5, 95}] {
		t.Error("popularity does not decay with segment position")
	}
	first := edgeSchedule(1, 2)
	if !reflect.DeepEqual(first, edgeSchedule(1, 2)) || reflect.DeepEqual(first, edgeSchedule(2, 2)) {
		t.Error("edge schedules do not follow the seed")
	}
}

func TestMatchesPayloadAcrossChunkBoundary(t *testing.T) {
	body := make([]byte, 3*payloadPeriod+123)
	for i := range body {
		body[i] = payloadPattern[i%payloadPeriod]
	}
	if !matchesPayload(0, body) || !matchesPayload(payloadPeriod-7, body[payloadPeriod-7:payloadPeriod+9]) {
		t.Fatal("the origin's payload was rejected")
	}
	body[2*payloadPeriod+1] ^= 1
	if matchesPayload(0, body) {
		t.Error("a corrupted byte passed the content check")
	}
}

func TestPresentationCheck(t *testing.T) {
	p, err := newPresentation(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	path, size := p.paths[2][1], p.sizes[2][1]
	if err := p.check(path, 200, size, true); err != nil {
		t.Errorf("a correct response failed: %v", err)
	}
	for _, bad := range []struct {
		status int
		n      int64
		ok     bool
	}{{503, size, true}, {200, size - 1, true}, {200, size, false}} {
		if p.check(path, bad.status, bad.n, bad.ok) == nil {
			t.Errorf("status %d, %d bytes, content ok %v passed", bad.status, bad.n, bad.ok)
		}
	}
	if p.check("/seg/nope/1.m4s", 200, 1, true) == nil {
		t.Error("an unknown path passed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program reports identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	e2e := phase{}.endToEnd(0)
	if len(decl.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(decl.EndToEnd), len(e2e))
	}
	for _, m := range decl.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range decl.PerLayer {
		if l := layerMetrics[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}
