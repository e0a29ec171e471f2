package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the le-inclusive bucket semantics:
// an observation exactly on a bound lands in that bound's bucket, one
// past it lands in the next, and anything past the last bound lands in
// the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{
		0.5, // below the first bound -> bucket 0
		1,   // exactly on a bound is le-inclusive -> bucket 0
		1.5, // -> bucket 1
		2,   // -> bucket 1
		4,   // exactly the last bound -> bucket 2
		4.1, // past the last bound -> overflow
		100, // -> overflow
	} {
		h.Observe(x)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.N != 7 {
		t.Errorf("N = %d, want 7", s.N)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	if math.Abs(s.Mean-(0.5+1+1.5+2+4+4.1+100)/7) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v): no panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestTraceWraparound records past the ring's capacity and checks that
// Events returns exactly the newest capacity entries, oldest first, with
// an unbroken sequence.
func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: "k", Val: int64(i)})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Val != want || e.Seq != uint64(want) {
			t.Errorf("event %d: Val=%d Seq=%d, want both %d", i, e.Val, e.Seq, want)
		}
	}
	if last := tr.Last(2); len(last) != 2 || last[1].Val != 9 {
		t.Errorf("Last(2) = %+v", last)
	}
}

func TestTracePartialFill(t *testing.T) {
	tr := NewTrace(8)
	tr.Record(Event{Val: 1})
	tr.Record(Event{Val: 2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Val != 1 || evs[1].Val != 2 {
		t.Fatalf("Events = %+v", evs)
	}
}

// TestSnapshotUnderWrites hammers every instrument type from writer
// goroutines while snapshotting; run with -race this pins that export
// never tears instrument state. The final snapshot must account for every
// write.
func TestSnapshotUnderWrites(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{1, 10})
			tr := r.Trace()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				tr.Record(Event{Kind: "w", Val: int64(i)})
			}
		}()
	}
	wg.Wait()
	close(stop)
	s := r.Snapshot()
	if s.Counters["c"] != writers*perWriter {
		t.Errorf("counter = %d, want %d", s.Counters["c"], writers*perWriter)
	}
	if s.Gauges["g"] != writers*perWriter {
		t.Errorf("gauge = %d, want %d", s.Gauges["g"], writers*perWriter)
	}
	if s.Histograms["h"].N != writers*perWriter {
		t.Errorf("histogram N = %d, want %d", s.Histograms["h"].N, writers*perWriter)
	}
	var n int64
	for _, c := range s.Histograms["h"].Counts {
		n += c
	}
	if n != writers*perWriter {
		t.Errorf("bucket sum = %d, want %d", n, writers*perWriter)
	}
	if got := r.Trace().Total(); got != writers*perWriter {
		t.Errorf("trace total = %d, want %d", got, writers*perWriter)
	}
}

// TestNilInstruments pins the disabled-path contract: every method on nil
// instruments is a safe no-op and allocates nothing.
func TestNilInstruments(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
		x *Trace
	)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		_ = c.Value()
		g.Set(1)
		g.Add(-1)
		_ = g.Value()
		h.Observe(3.14)
		x.Record(Event{Kind: "k"})
		_ = x.Total()
		_ = r.Counter("a")
		_ = r.Gauge("b")
		_ = r.Histogram("c", nil)
		_ = r.Trace()
	}); n != 0 {
		t.Fatalf("nil instruments allocated %v per run, want 0", n)
	}
	if h.Snapshot().N != 0 || len(x.Events()) != 0 {
		t.Fatal("nil snapshot not zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestLiveInstrumentsAllocFree pins the enabled hot path too: recording
// into resolved instruments performs no allocation.
func TestLiveInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 8))
	tr := r.Trace()
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(3)
		tr.Record(Event{Kind: "k", Shard: 1, Task: 2, Val: 3})
	}); n != 0 {
		t.Fatalf("live instruments allocated %v per run, want 0", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("rsin_test_total").Add(3)
	r.Gauge("rsin_test_free").Set(7)
	h := r.Histogram("rsin_test_ms", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rsin_test_total counter\nrsin_test_total 3\n",
		"# TYPE rsin_test_free gauge\nrsin_test_free 7\n",
		"# TYPE rsin_test_ms histogram\n",
		`rsin_test_ms_bucket{le="1"} 1`,
		`rsin_test_ms_bucket{le="2"} 2`,
		`rsin_test_ms_bucket{le="+Inf"} 3`,
		"rsin_test_ms_sum 101\n",
		"rsin_test_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h", []float64{1}).Observe(2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 1 || s.Histograms["h"].N != 1 {
		t.Fatalf("round trip lost data: %+v", s)
	}
}

func TestNewRegistryTraceDisabled(t *testing.T) {
	r := NewRegistryTrace(0)
	if r.Trace() != nil {
		t.Fatal("traceCap 0 should disable the ring")
	}
	r.Trace().Record(Event{}) // must be a safe no-op
}

// TestCollect pins the scrape-time hook: nothing to register on a nil
// registry; values emitted under one name add up, across collectors and
// onto a stored instrument of that name (schedulers sharing a registry
// export their sum), counters and gauges apart; and a collector runs
// outside the registry lock, so it may resolve instruments itself.
func TestCollect(t *testing.T) {
	var none *Registry
	none.Collect(func(emit func(string, bool, int64)) { t.Error("collector ran on a nil registry") })
	if s := none.Snapshot(); len(s.Counters)+len(s.Gauges) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}

	r := NewRegistry()
	r.Counter("jobs_total").Add(1)
	runs := 0
	for _, n := range []int64{10, 200} {
		r.Collect(func(emit func(string, bool, int64)) {
			runs++
			emit("jobs_total", false, n)
			emit("free", true, n)
			emit("idle_total", false, 0)
			r.Gauge("resolved_inside").Set(1) // deadlocks if Snapshot held r.mu here
		})
	}
	s := r.Snapshot()
	if s.Counters["jobs_total"] != 211 || s.Gauges["free"] != 210 {
		t.Errorf("jobs_total = %d, free = %d, want 211 and 210", s.Counters["jobs_total"], s.Gauges["free"])
	}
	if _, ok := s.Counters["idle_total"]; !ok {
		t.Error("a zero emitted value dropped its series from the snapshot")
	}
	if _, gauge := s.Gauges["jobs_total"]; gauge {
		t.Error("an emitted counter also appears as a gauge")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if text := buf.String(); !strings.Contains(text, "jobs_total 211\n") || !strings.Contains(text, "# TYPE free gauge\nfree 210\n") {
		t.Errorf("exposition misses the collected series:\n%s", text)
	}
	if runs != 4 {
		t.Errorf("collectors ran %d times over two scrapes, want 4", runs)
	}
}

// Set replaces a gauge's value; the library only moves gauges by Add.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}
