// Command srv6perf is the wall-clock benchmark of the SRv6/eBPF
// simulator. It runs one seeded workload in this process, measures
// host time per delivered simulated packet with tracing off, checks
// the run's modeled outputs against a fingerprint, and prints one JSON
// result line last on standard output. With -trace 1 it instead
// attributes the per-packet cost to the simulator's layers by timing
// their public functions on the workload's own inputs.
//
// Build and run from the module root with srv6perf/run.sh, e.g.
//
//	bash srv6perf/run.sh --workload lab-endbpf --seed 1 --seconds 10 --trace 0
//
// See srv6perf/README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// referenceSeed is the seed whose fingerprints reference.json stores.
const referenceSeed = 1

// referenceJSON is the stored reference, built into the binary so the
// check does not depend on the working directory. -write-reference
// rewrites the source file at referencePath, relative to the module
// root.
//
//go:embed reference.json
var referenceJSON []byte

var referencePath = filepath.Join("srv6perf", "reference.json")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts the benchmark's correctness checks: fingerprint
// comparisons, packet conservation and errors from layer calls.
type checks struct {
	attempted, failed int
}

func (c *checks) record(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name, or \"all\" for a table of every workload")
	seed := flag.Int64("seed", referenceSeed, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer attribution instead of the end-to-end run")
	outDir := flag.String("out-dir", ".bench_build", "directory for span dumps")
	writeRef := flag.Bool("write-reference", false, "record the reference fingerprints for the reference seed in "+referencePath+" and exit")
	flag.Parse()

	budget := time.Duration(*seconds) * time.Second

	if *writeRef {
		if err := writeReference(referencePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *workload == "all" {
		for _, w := range workloads {
			res, err := run(w, *seed, budget, *trace == 1, *outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			printTable(w, res)
		}
		return
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "srv6perf: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(w, *seed, budget, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printTable(w, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result.
func run(w *workload, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), w.procs))
	ref, err := parseReference(referenceJSON)
	if err != nil {
		return nil, err
	}
	var ck checks
	var ms map[string]metric
	if traced {
		ms, err = runTraced(w, seed, budget, ref, outDir, &ck)
	} else {
		ms, err = runEndToEnd(w, seed, budget, ref, &ck)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: ms}, nil
}

// Set-up is repeated at least minSetups times and until setupBudget
// has passed, at most maxSetups times. Spreading a small set-up over
// the whole budget makes its median cover more than one spell of host
// contention.
const (
	setupBudget = 1500 * time.Millisecond
	minSetups   = 5
	maxSetups   = 5000
)

// setup builds c repeatedly, from an empty Sim to the first scheduled
// packet, and returns the median set-up time, the median topology
// build time and the last instance.
func setup(w *workload, c runConfig, tr *tracer, ck *checks) (setupS, buildMs float64, in *instance, err error) {
	var times, builds []float64
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		in = nil
		runtime.GC()
		sp := tr.begin("setup")
		t := time.Now()
		in, err = w.build(c, tr)
		if err == nil {
			in.start()
		}
		dt := time.Since(t)
		tr.end(sp)
		ck.record(fmt.Sprintf("%s setup %v", w.name, c), err)
		if err != nil {
			return 0, 0, nil, err
		}
		times = append(times, dt.Seconds())
		builds = append(builds, float64(in.buildNs.Nanoseconds())/1e6)
	}
	return median(times), median(builds), in, nil
}

// checkReference compares the main instance with the stored
// reference for the reference seed; a workload missing from the
// reference fails the check.
func checkReference(w *workload, c runConfig, fp *fingerprint, ref map[string]*fingerprint, ck *checks) {
	if c.seed != referenceSeed {
		return
	}
	var err error
	if want, ok := ref[w.name]; !ok {
		err = errors.New("no stored reference")
	} else if same, why := sameAll(fp, want); !same {
		err = fmt.Errorf("fingerprint differs from reference: %s", why)
	}
	ck.record(w.name+" reference fingerprint", err)
}

// crossCheck builds the workload in another engine configuration, runs
// it to the fingerprint point and compares the modeled outputs.
func crossCheck(w *workload, c runConfig, fp *fingerprint, ck *checks) {
	in, err := w.build(c, nil)
	if err == nil {
		twin := newStepper(w, in).toFingerprint()
		if same, why := sameCore(fp, twin); !same {
			err = fmt.Errorf("differs from the measured configuration: %s", why)
		}
	}
	ck.record(fmt.Sprintf("%s cross-check %v", w.name, c), err)
}

func withSeed(c runConfig, seed int64) runConfig {
	c.seed = seed
	return c
}

// runEndToEnd is the untraced run: set-up, warm-up, one timed window,
// then the correctness checks.
func runEndToEnd(w *workload, seed int64, budget time.Duration, ref map[string]*fingerprint, ck *checks) (map[string]metric, error) {
	c := withSeed(w.main, seed)
	setupS, _, in, err := setup(w, c, nil, ck)
	if err != nil {
		return nil, err
	}
	// Host speed is printed in every run, so drift between sets of
	// runs is visible; it is a per-layer figure, not a metric here.
	fmt.Fprintf(os.Stderr, "host.ref_ns %.4f\n", hostRef())
	d := &stepper{w: w, in: in, next: w.chunkNs} // setup started the sources
	d.warm()
	win := d.measure(budget, nil)
	m, err := endToEndMetrics(win, setupS)
	if err != nil {
		return nil, err
	}
	ck.record(w.name+" conservation", conservation(in))
	checkReference(w, c, d.fp, ref, ck)
	crossCheck(w, withSeed(w.untracedTwin(), seed), d.fp, ck)
	return m, nil
}

func endToEndMetrics(win *window, setupS float64) (map[string]metric, error) {
	if win.delivered == 0 {
		return nil, errors.New("no packet delivered in the timed window")
	}
	rate, ok := win.fastRate()
	if !ok {
		return nil, fmt.Errorf("%d chunks: too few delivering chunks for a p98", len(win.chunkWall))
	}
	// The within-run spread of the chunk rates, on the rule the
	// between-run bounds are judged by, shows how contended the host was.
	rates := win.chunkRates()
	fmt.Fprintf(os.Stderr, "timed window: %d chunks, %d packets, %.3f s, chunk pkts/s IQR/median %.3f, deciles:",
		len(rates), win.delivered, float64(win.wallNs)/1e9, iqrSpread(rates))
	for q := 0.1; q < 0.95; q += 0.1 {
		x, _ := percentile(rates, q)
		fmt.Fprintf(os.Stderr, " %.0f", x)
	}
	fmt.Fprintln(os.Stderr)
	pkts := float64(win.delivered)
	return withUnits(endToEndUnits, map[string]float64{
		"pkts_per_s_p98":      rate,
		"setup_s":             setupS,
		"allocs_per_pkt":      float64(win.mallocs) / pkts,
		"alloc_bytes_per_pkt": float64(win.allocBytes) / pkts,
		"live_heap_mb":        float64(win.liveHeap) / (1 << 20),
	})
}

// endToEndUnits names every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"pkts_per_s_p98":      "1/s",
	"setup_s":             "s",
	"allocs_per_pkt":      "count",
	"alloc_bytes_per_pkt": "B",
	"live_heap_mb":        "MiB",
}

// withUnits pairs every named metric with its measured value.
func withUnits(units map[string]string, v map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		x, ok := v[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metric{x, unit}
	}
	return out, nil
}

// runTraced is the per-layer run: an untraced and a traced window on
// the measured configuration, a window at the other shard count, the
// burst cross-check and the layer replays.
func runTraced(w *workload, seed int64, budget time.Duration, ref map[string]*fingerprint, outDir string, ck *checks) (map[string]metric, error) {
	tr := newTracer()
	c := withSeed(w.main, seed)
	tr.setRun(1)
	_, buildMs, in, err := setup(w, c, tr, ck)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{"topo.build_ms": buildMs, "host.ref_ns": hostRef()}

	d := &stepper{w: w, in: in, next: w.chunkNs} // setup started the sources
	d.warm()
	plain := d.measure(budget/4, nil)
	traced := d.measure(budget/4, tr)
	ck.record(w.name+" conservation", conservation(in))
	checkReference(w, c, d.fp, ref, ck)

	plainRate, ok1 := plain.fastRate()
	tracedRate, ok2 := traced.fastRate()
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("too few chunks for a p98 rate: %d untraced, %d traced", len(plain.chunkWall), len(traced.chunkWall))
	}
	pktNs := 1e9 / plainRate
	pkts := float64(plain.delivered)
	v["window.chunks"] = float64(len(plain.chunkRates()))
	v["trace.overhead_frac"] = (plainRate - tracedRate) / plainRate
	v["netsim.events_per_pkt"] = float64(plain.events) / pkts
	v["netem.queue_depth_max"] = float64(traced.queueMax)
	if plain.usedCPU <= 0 {
		return nil, errors.New("the runtime reported no used CPU over the untraced window")
	}
	v["runtime.gc_cpu_frac"] = plain.gcCPU / plain.usedCPU
	v["runtime.gc_per_kpkt"] = float64(plain.numGC) / (pkts / 1000)

	// The same inputs at the other shard count: speedup and a
	// fingerprint cross-check.
	tr.setRun(2)
	alt := withSeed(w.shardAlt, seed)
	altIn, err := w.build(alt, nil)
	ck.record(fmt.Sprintf("%s setup %v", w.name, alt), err)
	if err != nil {
		return nil, err
	}
	ad := newStepper(w, altIn)
	ad.warm()
	altWin := ad.measure(budget/5, nil)
	var cerr error
	if same, why := sameCore(d.fp, ad.fp); !same {
		cerr = fmt.Errorf("differs from the measured configuration: %s", why)
	}
	ck.record(fmt.Sprintf("%s cross-check %v", w.name, alt), cerr)
	// Shard sync is counted on whichever window ran on 2 shards, so
	// it is measured on every workload.
	multi, single := plain, altWin
	if w.main.shards < w.shardAlt.shards {
		multi, single = single, multi
	}
	multiRate, ok1 := multi.fastRate()
	singleRate, ok2 := single.fastRate()
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("too few chunks for a p98 rate: %d on 2 shards, %d on 1", len(multi.chunkWall), len(single.chunkWall))
	}
	v["netsim.shard_speedup"] = multiRate / singleRate
	mpkts := float64(multi.delivered)
	v["netsim.cross_shard_msgs_per_pkt"] = float64(multi.messages) / mpkts
	v["netsim.windows_per_kpkt"] = float64(multi.windows) / (mpkts / 1000)
	crossCheck(w, withSeed(w.burstAlt, seed), d.fp, ck)

	tr.setRun(3)
	rep, err := replayLayers(w, c, plain, budget*3/10, tr)
	ck.record(w.name+" layer replays", err)
	if err != nil {
		return nil, err
	}
	for k, x := range rep.values {
		v[k] = x
	}
	// Layers the workload never calls show 0 ops per packet here and
	// add nothing to the explained cost.
	explained := 0.0
	fmt.Fprintf(os.Stderr, "%-24s %12s %12s %12s\n", "attribution", "ns/op", "ops/pkt", "ns/pkt")
	for _, a := range rep.attrib {
		explained += a.ns * a.opsPerPkt
		fmt.Fprintf(os.Stderr, "%-24s %12.1f %12.3f %12.1f\n", a.layer, a.ns, a.opsPerPkt, a.ns*a.opsPerPkt)
	}
	v["attrib.explained_ns"] = explained
	v["attrib.residual_ns"] = pktNs - explained
	fmt.Fprintf(os.Stderr, "%-24s %38.1f\n%-24s %38.1f\n", "explained", explained, "residual (1e9/p98 rate - explained)", pktNs-explained)

	tr.printSelfTimes()
	path, err := tr.write(outDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans: %s (%d)\n", path, len(tr.spans))

	return withUnits(layerUnits, v)
}

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"host.ref_ns":                     "ns",
	"window.chunks":                   "count",
	"packet.parse_ns":                 "ns",
	"netsim.fib_lookup_ns":            "ns",
	"netsim.fib_select_ns":            "ns",
	"netsim.hops_per_pkt":             "count",
	"netsim.event_ns":                 "ns",
	"netsim.event_heap_depth":         "count",
	"netsim.events_per_pkt":           "count",
	"netsim.cross_shard_msgs_per_pkt": "count",
	"netsim.windows_per_kpkt":         "count",
	"netsim.shard_speedup":            "x",
	"netsim.route_install_ms":         "ms",
	"partition.mincut_ms":             "ms",
	"partition.cut_links":             "count",
	"topo.build_ms":                   "ms",
	"netem.admit_ns":                  "ns",
	"netem.queue_depth_max":           "count",
	"seg6.apply_ns":                   "ns",
	"seg6.encap_ns":                   "ns",
	"seg6.decap_ns":                   "ns",
	"core.end_bpf_ns":                 "ns",
	"core.lwt_ns":                     "ns",
	"bpf.insns_per_run":               "count",
	"bpf.helper_calls_per_run":        "count",
	"bpf.ns_per_insn":                 "ns",
	"bpf.load_ms":                     "ms",
	"maps.lookup_ns":                  "ns",
	"maps.update_ns":                  "ns",
	"runtime.gc_cpu_frac":             "fraction",
	"runtime.gc_per_kpkt":             "count",
	"attrib.explained_ns":             "ns",
	"attrib.residual_ns":              "ns",
	"trace.overhead_frac":             "fraction",
}

// hostRefSink keeps the reference loop's result alive.
var hostRefSink uint64

// hostRef times a fixed pure-CPU loop: the median ns per iteration of
// seven passes. It tracks host speed, not the simulator.
func hostRef() float64 {
	const iters = 1 << 20
	var samples []float64
	for rep := 0; rep < 7; rep++ {
		x, acc := uint64(88172645463325252), uint64(0)
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0x9E3779B97F4A7C15
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/iters)
		hostRefSink += acc
	}
	return median(samples)
}

// printTable writes the result as a name/value/unit table to stderr.
func printTable(w *workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "== %s (%s): correct=%v attempted=%d failed=%d\n", w.name, w.why, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-32s %16.4f %s\n", k, m.Value, m.Unit)
	}
}

// parseReference decodes the stored fingerprints.
func parseReference(b []byte) (map[string]*fingerprint, error) {
	ref := make(map[string]*fingerprint)
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// writeReference records every workload's fingerprint at the main
// configuration for the reference seed. Regenerate only when a change
// is meant to alter modeled outputs, then rebuild.
func writeReference(path string) error {
	ref := make(map[string]*fingerprint)
	for _, w := range workloads {
		in, err := w.build(withSeed(w.main, referenceSeed), nil)
		if err != nil {
			return err
		}
		ref[w.name] = newStepper(w, in).toFingerprint()
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
