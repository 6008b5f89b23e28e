package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Fatalf("median of odd count = %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of even count = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins the cut points to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
	if s := iqrSpread([]float64{1, 2, 3, 4}); !near(s, (3.75-1.25)/2.5) {
		t.Errorf("iqrSpread = %v", s)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 91; i++ {
		xs = append(xs, float64(i))
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("p90 of 91 samples has 9 beyond it and must not be reported")
	}
	for i := 92; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, ok := percentile(xs, 0.9)
	if !ok || !near(v, 90.1) {
		t.Fatalf("p90 of 1..100 = %v (ok=%v), want 90.1", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || !near(v, 50.5) {
		t.Fatalf("p50 of 1..100 = %v, want 50.5", v)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer {
		t.Fatalf("inner parent = %d, want %d", tr.spans[inner].Parent, outer)
	}
	self := tr.selfTimes()
	total := time.Duration(tr.spans[outer].End - tr.spans[outer].Start)
	if self["outer"]+self["inner"] != total {
		t.Fatalf("self times %v do not add up to the outer span %v", self, total)
	}
	if self["inner"] < 2*time.Millisecond {
		t.Fatalf("inner self time %v shorter than its sleep", self["inner"])
	}
	var off *tracer
	off.end(off.begin("ignored")) // a nil tracer records nothing
}

// TestChunkSampling measures a short lab window and checks that every
// delivered packet and nanosecond lands in exactly one chunk, that the
// window runs long enough for a p98 over chunks and the fingerprint
// point, and that the fast rate lies within the chunk rates.
func TestChunkSampling(t *testing.T) {
	w := labWorkload
	in, err := w.build(withSeed(w.main, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newStepper(w, in)
	d.warm()
	before := in.delivered()
	win := d.measure(time.Millisecond, nil)
	if d.fp == nil {
		t.Fatal("window ended before the fingerprint point")
	}
	if got := in.delivered() - before; got != win.delivered {
		t.Fatalf("window counted %d packets, sinks saw %d", win.delivered, got)
	}
	if len(win.chunkWall) < minChunks {
		t.Fatalf("%d chunks, want at least %d", len(win.chunkWall), minChunks)
	}
	var wall int64
	for _, x := range win.chunkWall {
		wall += x
	}
	if wall != win.wallNs {
		t.Fatalf("chunk walls sum to %d ns, window measured %d", wall, win.wallNs)
	}
	rates := win.chunkRates()
	if len(rates) != len(win.chunkWall) {
		t.Fatalf("%d of %d chunks delivered packets", len(rates), len(win.chunkWall))
	}
	rate, ok := win.fastRate()
	if !ok {
		t.Fatalf("no p98 over %d chunks", len(rates))
	}
	s := sortedCopy(rates)
	if rate < median(rates) || rate > s[len(s)-1] {
		t.Fatalf("fast rate %v outside [median %v, max %v]", rate, median(rates), s[len(s)-1])
	}
	if err := conservation(in); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintComparison(t *testing.T) {
	base := func() *fingerprint {
		return &fingerprint{
			Core: "a", Delivered: 10, Events: 99, Windows: 4, Messages: 7,
			Sinks:  []string{"S2:9 pkts=10"},
			Totals: map[string]uint64{"udp_delivered": 10, "drop_no_route": 0},
		}
	}
	a, b := base(), base()
	if ok, why := sameAll(a, b); !ok {
		t.Fatalf("identical fingerprints differ: %s", why)
	}
	b.Windows = 5
	if ok, _ := sameCore(a, b); !ok {
		t.Fatal("the shard layout's window count must not affect the core comparison")
	}
	if ok, _ := sameAll(a, b); ok {
		t.Fatal("sameAll missed a window-count difference")
	}
	c := base()
	c.Core = "b"
	c.Totals["drop_no_route"] = 1
	ok, why := sameCore(a, c)
	if ok || why != "counter drop_no_route total 0 vs 1" {
		t.Fatalf("sameCore = %v %q, want the drop_no_route difference", ok, why)
	}
}

// TestReferenceChecked keeps the embedded reference complete and makes
// sure a workload without one fails at the reference seed instead of
// being skipped.
func TestReferenceChecked(t *testing.T) {
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if ref[w.name] == nil {
			t.Errorf("reference.json has no fingerprint for %s", w.name)
		}
	}
	fp := &fingerprint{Core: "x"}
	var ck checks
	checkReference(labWorkload, withSeed(labWorkload.main, referenceSeed), fp, map[string]*fingerprint{}, &ck)
	if ck.attempted != 1 || ck.failed != 1 {
		t.Errorf("missing reference at the reference seed: attempted %d failed %d, want 1 and 1", ck.attempted, ck.failed)
	}
	ck = checks{}
	checkReference(labWorkload, withSeed(labWorkload.main, referenceSeed+1), fp, ref, &ck)
	if ck.attempted != 0 {
		t.Errorf("a held-out seed was compared with the reference")
	}
}

// TestBurstAndShardTwinsAgree runs the lab workload to its fingerprint
// point at burst 32, burst 1 and two shards: the modeled outputs must
// be identical, and a different seed must change them.
func TestBurstAndShardTwinsAgree(t *testing.T) {
	w := labWorkload
	fp := func(c runConfig) *fingerprint {
		in, err := w.build(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return newStepper(w, in).toFingerprint()
	}
	main := fp(withSeed(w.main, 3))
	for _, c := range []runConfig{w.burstAlt, w.shardAlt} {
		if ok, why := sameCore(main, fp(withSeed(c, 3))); !ok {
			t.Errorf("%v differs from the main configuration: %s", c, why)
		}
	}
	if ok, _ := sameCore(main, fp(withSeed(w.main, 4))); ok {
		t.Error("another seed produced the same fingerprint; the seed does not reach the inputs")
	}
	if main.Delivered == 0 || main.Totals["drop_seg6local_error"] != 0 {
		t.Errorf("unexpected lab outcome: %+v", main)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in
// step: same workloads, same metric names, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if pw := findWorkload(w.Name); pw == nil || pw.why != w.Why {
			t.Errorf("workload %s is not in the program with the same why", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): program has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndUnits)
	check("per_layer", bench.PerLayer, layerUnits)
}
