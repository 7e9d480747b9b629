package trace

import (
	"math"
	"math/rand"
	"testing"

	"ecavs/internal/netsim"
	"ecavs/internal/vibration"
)

// vibTolerance is the documented agreement contract between the
// compiled prefix-sum VibrationAt and the reference two-pass
// implementation (DESIGN.md §10).
const vibTolerance = 1e-9

// randomTrace builds a trace with irregular sample spacing and mixed
// calm/shaky stretches so windows hit every density regime.
func randomTrace(rng *rand.Rand) *Trace {
	lengthSec := 5 + rng.Float64()*115
	tr := &Trace{
		ID:                0,
		Name:              "random",
		LengthSec:         lengthSec,
		NativeBitrateMbps: 1 + rng.Float64()*4,
	}
	for t := 0.0; t < lengthSec; t += 0.5 + rng.Float64()*2 {
		tr.Network = append(tr.Network, netsim.TracePoint{
			TimeSec:        t,
			SignalDBm:      -120 + rng.Float64()*40,
			ThroughputMBps: rng.Float64() * 4,
		})
	}
	amp := rng.Float64() * 3
	for t := 0.0; t < lengthSec; {
		tr.Accel = append(tr.Accel, vibration.Sample{
			TimeSec: t,
			X:       rng.NormFloat64() * amp,
			Y:       rng.NormFloat64() * amp,
			Z:       vibration.Gravity + rng.NormFloat64()*amp,
		})
		// Irregular rates, including occasional multi-second gaps that
		// leave some windows with 0 or 1 samples.
		if rng.Intn(20) == 0 {
			t += 1 + rng.Float64()*8
		} else {
			t += 0.01 + rng.Float64()*0.1
		}
	}
	if len(tr.Network) == 0 {
		tr.Network = []netsim.TracePoint{{TimeSec: 0, SignalDBm: -100, ThroughputMBps: 1}}
	}
	if len(tr.Accel) == 0 {
		tr.Accel = []vibration.Sample{{TimeSec: 0, Z: vibration.Gravity}}
	}
	return tr
}

// The tentpole property: across randomized traces, windows, and query
// times — including t beyond the trace end and windows longer than the
// trace — the compiled O(1) VibrationAt agrees with the reference
// two-pass implementation within the 1e-9 contract, for both the
// stateless path and the cursor fast path.
func TestCompiledVibrationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng)
		c, err := Compile(tr)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		cur := c.Cursor()
		for q := 0; q < 300; q++ {
			// Bias towards in-range times but include before-start and
			// past-end queries.
			tSec := rng.Float64()*tr.LengthSec*1.3 - tr.LengthSec*0.1
			var windowSec float64
			switch rng.Intn(4) {
			case 0:
				windowSec = 0 // default-window fallback
			case 1:
				windowSec = tr.LengthSec * (1 + rng.Float64()) // longer than the trace
			default:
				windowSec = 0.05 + rng.Float64()*12
			}
			want := tr.VibrationAt(tSec, windowSec)
			if got := c.VibrationAt(tSec, windowSec); math.Abs(got-want) > vibTolerance {
				t.Fatalf("trial %d: Compiled.VibrationAt(%v, %v) = %.15g, reference %.15g (Δ=%g)",
					trial, tSec, windowSec, got, want, got-want)
			}
			if got := cur.VibrationAt(tSec, windowSec); math.Abs(got-want) > vibTolerance {
				t.Fatalf("trial %d: Cursor.VibrationAt(%v, %v) = %.15g, reference %.15g (Δ=%g)",
					trial, tSec, windowSec, got, want, got-want)
			}
		}
	}
}

// The cursor fast path must stay exact (not just within tolerance)
// relative to the stateless compiled path under its designed monotone
// access pattern.
func TestCursorMonotoneMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cur := c.Cursor()
	for tSec := -2.0; tSec < tr.LengthSec+10; tSec += 0.37 {
		if got, want := cur.VibrationAt(tSec, 6), c.VibrationAt(tSec, 6); got != want {
			t.Fatalf("cursor diverged at t=%v: %v != %v", tSec, got, want)
		}
		if got, want := cur.SignalAt(tSec), c.SignalAt(tSec); got != want {
			t.Fatalf("cursor signal diverged at t=%v: %v != %v", tSec, got, want)
		}
		if got, want := cur.ThroughputMBpsAt(tSec), c.ThroughputMBpsAt(tSec); got != want {
			t.Fatalf("cursor throughput diverged at t=%v: %v != %v", tSec, got, want)
		}
	}
}

// uniformTrace builds a lengthSec trace sampled at the accelerometer's
// uniform 50 Hz, the shape of every generated Table V trace.
func uniformTrace(tb testing.TB, seed int64, lengthSec float64) *Trace {
	tb.Helper()
	gen, err := vibration.NewGenerator(vibration.DefaultSampleRateHz, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return &Trace{
		LengthSec:         lengthSec,
		NativeBitrateMbps: 2,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
		Accel:             gen.Generate(vibration.Bus, 0, lengthSec),
	}
}

// The cursor under a session's access pattern: decisions seconds apart
// (so a window edge moves by a hundred 50 Hz samples), repeated times,
// backward jumps, changing windows, queries on exact sample timestamps
// and past the end. Over irregular, uniform and duplicate-timestamp
// streams, every level must equal the stateless one bit for bit and
// every cached edge must be the binary-search index.
func TestCursorSessionSpacingMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var traces []*Trace
	for k := 0; k < 4; k++ {
		traces = append(traces, randomTrace(rng), uniformTrace(t, int64(k), 60+rng.Float64()*240))
	}
	dup := randomTrace(rng) // timestamps on a 0.1 s grid, many repeated
	for i := range dup.Accel {
		dup.Accel[i].TimeSec = math.Floor(dup.Accel[i].TimeSec*10) / 10
	}
	traces = append(traces, dup)

	for n, tr := range traces {
		c, err := Compile(tr)
		if err != nil {
			t.Fatalf("trace %d: Compile: %v", n, err)
		}
		ts := c.accelT
		cur := c.Cursor()
		tSec, window := -1.0, 6.0
		for q := 0; q < 3000; q++ {
			switch r := rng.Intn(20); {
			case r < 12:
				tSec += rng.Float64() * 10 // forward, 0-10 s
			case r < 14:
				tSec += 2 // one 2 s segment
			case r < 16:
				// repeat the last time
			case r < 18:
				tSec -= rng.Float64() * 20 // backward
			default:
				tSec = ts[rng.Intn(len(ts))] // exactly on a sample
			}
			if tSec > tr.LengthSec+15 {
				tSec = rng.Float64() * tr.LengthSec
			}
			if rng.Intn(10) == 0 {
				switch rng.Intn(4) {
				case 0:
					window = 0 // default-window fallback
				case 1:
					window = tr.LengthSec * (1 + rng.Float64())
				case 2:
					// Lands the window start on (or within a rounding
					// of) an earlier sample.
					if k := searchGT(ts, tSec) - 1; k > 0 {
						window = tSec - ts[rng.Intn(k)]
					}
				default:
					window = 0.05 + rng.Float64()*12
				}
			}
			got, want := cur.VibrationAt(tSec, window), c.VibrationAt(tSec, window)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trace %d query %d: Cursor.VibrationAt(%v, %v) = %v, stateless %v", n, q, tSec, window, got, want)
			}
			w := window
			if w <= 0 {
				w = vibration.DefaultWindowSec
			}
			if lo, hi := searchGE(ts, tSec-w), searchGT(ts, tSec); cur.lo != lo || cur.hi != hi {
				t.Fatalf("trace %d query %d (t=%v, w=%v): cursor edges [%d, %d), binary search [%d, %d)",
					n, q, tSec, w, cur.lo, cur.hi, lo, hi)
			}
		}
	}
}

// The network step queries must match a TraceLink replay (the
// simulator's ground truth for zero-order hold semantics).
func TestCompiledNetworkMatchesTraceLink(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	link, err := tr.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	for tSec := 0.0; tSec < tr.LengthSec+5; tSec += 0.51 {
		link.Advance(tSec - link.Now())
		if got, want := c.SignalAt(tSec), link.SignalDBm(); got != want {
			t.Fatalf("SignalAt(%v) = %v, TraceLink says %v", tSec, got, want)
		}
		if got, want := c.ThroughputMBpsAt(tSec), link.ThroughputMBps(); got != want {
			t.Fatalf("ThroughputMBpsAt(%v) = %v, TraceLink says %v", tSec, got, want)
		}
	}
}

// Pinned edge-case behavior shared by the reference and compiled
// paths (ISSUE 6 satellite): past-the-end queries, before-the-start
// queries, and windows with fewer than two samples all report 0.
func TestVibrationAtEdgeCases(t *testing.T) {
	tr := &Trace{
		LengthSec:         10,
		NativeBitrateMbps: 1,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
		Accel: []vibration.Sample{
			{TimeSec: 1, X: 1, Z: vibration.Gravity},
			{TimeSec: 2, X: 3, Z: vibration.Gravity},
			{TimeSec: 3, X: 2, Z: vibration.Gravity},
		},
	}
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cases := []struct {
		name      string
		tSec, win float64
		wantZero  bool
	}{
		{"before first sample", 0.5, 2, true},
		{"window covers one sample", 1.2, 0.5, true},
		{"window covers two samples", 2.1, 2, false},
		{"past end, window still spans samples", 4, 6, false},
		{"far past end", 20, 2, true},
		{"just past end by more than window", 5.5, 2, true},
		{"negative time", -3, 2, true},
		{"default window fallback", 3, 0, false},
	}
	for _, tc := range cases {
		ref := tr.VibrationAt(tc.tSec, tc.win)
		got := c.VibrationAt(tc.tSec, tc.win)
		if (ref == 0) != tc.wantZero {
			t.Errorf("%s: reference VibrationAt(%v, %v) = %v, wantZero=%v",
				tc.name, tc.tSec, tc.win, ref, tc.wantZero)
		}
		if math.Abs(got-ref) > vibTolerance {
			t.Errorf("%s: compiled %v vs reference %v", tc.name, got, ref)
		}
	}
}

// Compilation must be numerically robust against catastrophic
// cancellation: a long, nearly-constant stream around Gravity has tiny
// variance riding on a huge E[m²]; naive prefix sums of m² lose it.
func TestCompiledVibrationNearConstantStream(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := &Trace{
		LengthSec:         3600,
		NativeBitrateMbps: 1,
		Network:           []netsim.TracePoint{{TimeSec: 0, SignalDBm: -90, ThroughputMBps: 2}},
	}
	for i := 0; i < 200_000; i++ {
		tr.Accel = append(tr.Accel, vibration.Sample{
			TimeSec: float64(i) * 0.018,
			Z:       vibration.Gravity + rng.NormFloat64()*1e-4,
		})
	}
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, tSec := range []float64{6, 500, 1800, 3599} {
		want := tr.VibrationAt(tSec, 6)
		got := c.VibrationAt(tSec, 6)
		if math.Abs(got-want) > vibTolerance {
			t.Fatalf("near-constant stream at t=%v: compiled %.15g vs reference %.15g (Δ=%g)",
				tSec, got, want, got-want)
		}
	}
}

// Compile must reject what Validate rejects.
func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(&Trace{}); err == nil {
		t.Fatal("Compile accepted an empty trace")
	}
}

// The memoized accessor must return the same pointer every call and
// count one compile plus per-call hits.
func TestTraceCompiledMemoizes(t *testing.T) {
	tr := tinyTrace(t)
	c0, h0 := CompileStats()
	c1, err := tr.Compiled()
	if err != nil {
		t.Fatalf("Compiled: %v", err)
	}
	c2, err := tr.Compiled()
	if err != nil {
		t.Fatalf("Compiled: %v", err)
	}
	if c1 != c2 {
		t.Fatal("Compiled() returned different pointers")
	}
	if c1.Trace() != tr {
		t.Fatal("Compiled().Trace() does not round-trip")
	}
	c3, h3 := CompileStats()
	if c3-c0 != 1 {
		t.Errorf("compiles advanced by %d, want 1", c3-c0)
	}
	if h3-h0 != 1 {
		t.Errorf("hits advanced by %d, want 1", h3-h0)
	}
}

// Link must replay the shared network points with TraceLink semantics.
func TestCompiledLink(t *testing.T) {
	tr := tinyTrace(t)
	c, err := Compile(tr)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	l := c.Link()
	ref, err := tr.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	for i := 0; i < 20; i++ {
		if l.SignalDBm() != ref.SignalDBm() || l.ThroughputMBps() != ref.ThroughputMBps() {
			t.Fatalf("replay diverged at step %d", i)
		}
		l.Advance(0.7)
		ref.Advance(0.7)
	}
}

func BenchmarkVibrationAtReference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.VibrationAt(float64(i%int(tr.LengthSec)), 6)
	}
}

func BenchmarkVibrationAtCompiled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.VibrationAt(float64(i%int(tr.LengthSec)), 6)
	}
}

func BenchmarkVibrationAtCursor(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng)
	c, err := Compile(tr)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	cur := c.Cursor()
	step := tr.LengthSec / 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i%1000) * step
		if i%1000 == 0 {
			cur = c.Cursor()
		}
		cur.VibrationAt(t, 6)
	}
}

// BenchmarkVibrationAtCursorSegmentSpacing queries a 50 Hz trace at a
// session's decision spacing, 2 s apart, so each window edge moves by
// a hundred samples per query.
func BenchmarkVibrationAtCursorSegmentSpacing(b *testing.B) {
	tr := uniformTrace(b, 3, 600)
	c, err := Compile(tr)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	const steps = 290 // 2 s apart, inside the 600 s trace
	cur := c.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % steps
		if k == 0 {
			cur = c.Cursor()
		}
		cur.VibrationAt(float64(k)*2, 6)
	}
}
