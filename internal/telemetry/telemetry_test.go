package telemetry

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registering the same counter returned a new instance")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	r.GaugeFunc("gf", "derived", func() float64 { return 42 })
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x_seconds", "", DefLatencyBuckets())
	v := reg.CounterVec("xv_total", "", "k")
	gv := reg.GaugeVec("xv", "", "k")
	reg.GaugeFunc("xf", "", func() float64 { return 1 })
	reg.CounterFunc("xc_total", "", func() float64 { return 1 })

	// None of these may panic or allocate per call.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	v.With("a").Inc()
	gv.With("a").Set(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics reported non-zero values")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(1)
	}); allocs != 0 {
		t.Errorf("nil metric ops allocated %.1f times per run, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 55.65; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Bucket occupancy: le=0.1 gets 0.05 and 0.1 (bounds are
	// inclusive), le=1 gets 0.5, le=10 gets 5, +Inf gets 50.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramBadBounds(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			r.Histogram("bad_seconds", "", bounds)
		}()
	}
}

func TestRegistryConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "1abc", "a-b", "a b", "a{}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rung_total", "per-rung", "rung")
	a, b := v.With("0"), v.With("1")
	if a == b {
		t.Fatal("distinct label values share a counter")
	}
	if v.With("0") != a {
		t.Error("same label value resolved to a new counter")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Errorf("vec values = %d, %d, want 2, 1", a.Value(), b.Value())
	}
}

// TestConcurrentHammer drives counters, gauges, histograms, and lazy
// vec registration from many goroutines at once; run under -race (make
// obs does) this is the data-race gate, and the final counts must be
// exact — atomics lose nothing.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", DefLatencyBuckets())
	v := r.CounterVec("hammer_rung_total", "", "rung")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := v.With(strconv.Itoa(id % 4))
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%100) / 100)
				mine.Inc()
				// Interleave scrapes with writes.
				if j%500 == 0 {
					_ = r.WritePrometheus(discard{})
				}
			}
		}(i)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Errorf("gauge = %v, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var vecTotal int64
	for i := 0; i < 4; i++ {
		vecTotal += v.With(strconv.Itoa(i)).Value()
	}
	if vecTotal != goroutines*perG {
		t.Errorf("vec total = %d, want %d", vecTotal, goroutines*perG)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
