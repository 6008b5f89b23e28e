package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// stepper advances one instance along its workload's chunk grid and
// takes the fingerprint when the grid reaches the fingerprint point.
type stepper struct {
	w    *workload
	in   *instance
	next int64 // virtual end of the next chunk
	fp   *fingerprint
}

func newStepper(w *workload, in *instance) *stepper {
	in.start()
	return &stepper{w: w, in: in, next: w.chunkNs}
}

// step runs one chunk. The fingerprint is taken after the chunk, so
// callers keep it outside any timed region.
func (d *stepper) step() {
	d.in.sim.RunUntil(d.next)
	d.next += d.w.chunkNs
}

// after runs the untimed bookkeeping that follows a chunk.
func (d *stepper) after() {
	if d.fp == nil && d.next-d.w.chunkNs == d.w.fpNs {
		d.fp = takeFingerprint(d.in)
	}
}

// warm runs the untimed warm-up chunks.
func (d *stepper) warm() {
	for d.next <= d.w.warmNs {
		d.step()
		d.after()
	}
}

// toFingerprint runs until the fingerprint point has been passed.
func (d *stepper) toFingerprint() *fingerprint {
	for d.fp == nil {
		d.step()
		d.after()
	}
	return d.fp
}

// window is what one timed window measured.
type window struct {
	wallNs    int64
	delivered uint64
	// chunkWall and chunkPkts hold each timed chunk's wall ns and
	// delivered packets, in order.
	chunkWall  []int64
	chunkPkts  []uint64
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
	events     uint64
	windows    uint64
	messages   uint64
	gcCPU      float64
	usedCPU    float64
	numGC      uint32
	queueMax   int
}

// chunkRates returns the delivered packets per wall second of each
// chunk that delivered anything.
func (w *window) chunkRates() []float64 {
	xs := make([]float64, 0, len(w.chunkWall))
	for i, wall := range w.chunkWall {
		if w.chunkPkts[i] > 0 && wall > 0 {
			xs = append(xs, float64(w.chunkPkts[i])/(float64(wall)/1e9))
		}
	}
	return xs
}

// fastQuantile is the quantile of the chunk rates reported as
// throughput: the simulator's speed while the host runs it at full
// speed. On a shared host, other tenants contending for the caches slow
// memory-bound code by up to 1.8x for spans of 0.1-2 s, and the share
// of a run they cover changes from run to run, so the median and the
// slow tail of the chunk rates move with them; the fast tail does not,
// as long as a few percent of a run's chunks see an idle host. A change
// that slows the simulator slows every chunk, the fast ones too.
const fastQuantile = 0.98

// minChunks is the least number of chunks a window times, so that
// minTail chunks lie beyond its fastQuantile.
const minChunks = 500

// fastRate is the fastQuantile of the chunk rates. ok is false when
// fewer than minTail chunks lie beyond it.
func (w *window) fastRate() (rate float64, ok bool) {
	return percentile(w.chunkRates(), fastQuantile)
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readCPU returns the runtime's GC CPU and the CPU its procs used, that
// is available CPU less idle time.
func readCPU() (gc, used float64) {
	metrics.Read(cpuMetrics)
	var x [3]float64
	for i, s := range cpuMetrics {
		if s.Value.Kind() == metrics.KindFloat64 {
			x[i] = s.Value.Float64()
		}
	}
	return x[0], x[1] - x[2]
}

// measure runs timed chunks until budget of chunk time, at least
// minChunks chunks and the fingerprint point have passed. With a tracer,
// each chunk is a span and queue depths are sampled between chunks.
func (d *stepper) measure(budget time.Duration, tr *tracer) *window {
	win := &window{chunkWall: make([]int64, 0, 1<<13), chunkPkts: make([]uint64, 0, 1<<13)}
	sim := d.in.sim
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := readCPU()
	es0 := sim.EngineStats()
	top := tr.begin("window")
	for time.Duration(win.wallNs) < budget || len(win.chunkWall) < minChunks || d.fp == nil {
		del0 := d.in.delivered()
		t := time.Now()
		sp := tr.begin("chunk.netsim.RunUntil")
		d.step()
		tr.end(sp)
		dt := time.Since(t).Nanoseconds()
		del := d.in.delivered() - del0
		win.wallNs += dt
		win.delivered += del
		win.chunkWall = append(win.chunkWall, dt)
		win.chunkPkts = append(win.chunkPkts, del)
		d.after()
		if tr != nil {
			if q := maxQueueDepth(d.in); q > win.queueMax {
				win.queueMax = q
			}
		}
	}
	tr.end(top)
	es1 := sim.EngineStats()
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.numGC = ms1.NumGC - ms0.NumGC
	win.events = es1.Events - es0.Events
	win.windows = es1.Windows - es0.Windows
	win.messages = es1.Messages - es0.Messages
	// The runtime refreshes its CPU-class totals only at the end of a
	// collection, so the window is closed by the collection that
	// measures live heap, and that one collection is counted in it.
	runtime.GC()
	gc1, cpu1 := readCPU()
	win.gcCPU, win.usedCPU = gc1-gc0, cpu1-cpu0
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	win.liveHeap = ms2.HeapAlloc
	return win
}

// maxQueueDepth samples every link direction's netem queue. Call it
// only between RunUntil chunks, while no shard is running.
func maxQueueDepth(in *instance) int {
	now := in.sim.Now()
	max := 0
	for _, n := range in.sim.Nodes() {
		for _, ifc := range n.Ifaces() {
			if q := ifc.Qdisc().QueueDepth(now); q > max {
				max = q
			}
		}
	}
	return max
}

// fingerprint summarises a workload's modeled outputs at the
// fingerprint point. core covers what no engine setting may change:
// sink counts, every node's counters, every link's transmit counters
// and the executed event count. windows and messages depend on the
// shard layout, so only same-configuration comparisons use them.
type fingerprint struct {
	Core      string            `json:"core_sha256"`
	Delivered uint64            `json:"delivered"`
	Events    uint64            `json:"events"`
	Windows   uint64            `json:"windows"`
	Messages  uint64            `json:"messages"`
	Sinks     []string          `json:"sinks"`
	Totals    map[string]uint64 `json:"counter_totals"`
}

func takeFingerprint(in *instance) *fingerprint {
	var b strings.Builder
	fp := &fingerprint{Totals: make(map[string]uint64)}
	for _, s := range in.sinks {
		line := fmt.Sprintf("%s pkts=%d bytes=%d tags=%d", s.name, s.pkts, s.bytes, s.tagSum)
		fp.Sinks = append(fp.Sinks, line)
		fp.Delivered += s.pkts
		b.WriteString(line)
		b.WriteByte('\n')
	}
	counters := make(map[string]uint64, 32)
	keys := make([]string, 0, 32)
	for _, n := range in.sim.Nodes() {
		for k := range counters {
			delete(counters, k)
		}
		n.CountersInto(counters)
		keys = keys[:0]
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(n.Name)
		b.WriteByte('{')
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d ", k, counters[k])
			fp.Totals[k] += counters[k]
		}
		for _, ifc := range n.Ifaces() {
			fmt.Fprintf(&b, "%s:tx=%d/%d/%d ", ifc.Name, ifc.TxPackets, ifc.TxBytes, ifc.TxDrops)
			fp.Totals["iface_tx_packets"] += ifc.TxPackets
			fp.Totals["iface_tx_drops"] += ifc.TxDrops
		}
		b.WriteString("}\n")
	}
	st := in.sim.EngineStats()
	fp.Events, fp.Windows, fp.Messages = st.Events, st.Windows, st.Messages
	fmt.Fprintf(&b, "events=%d\n", st.Events)
	sum := sha256.Sum256([]byte(b.String()))
	fp.Core = hex.EncodeToString(sum[:])
	return fp
}

// sameCore compares the engine-independent part of two fingerprints
// and describes the first difference.
func sameCore(a, b *fingerprint) (bool, string) {
	if a.Core == b.Core {
		return true, ""
	}
	if a.Delivered != b.Delivered {
		return false, fmt.Sprintf("delivered %d vs %d", a.Delivered, b.Delivered)
	}
	if a.Events != b.Events {
		return false, fmt.Sprintf("events %d vs %d", a.Events, b.Events)
	}
	for i := range a.Sinks {
		if i < len(b.Sinks) && a.Sinks[i] != b.Sinks[i] {
			return false, fmt.Sprintf("sink %q vs %q", a.Sinks[i], b.Sinks[i])
		}
	}
	keys := make([]string, 0, len(a.Totals))
	for k := range a.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Totals[k] != b.Totals[k] {
			return false, fmt.Sprintf("counter %s total %d vs %d", k, a.Totals[k], b.Totals[k])
		}
	}
	return false, "per-node counters differ"
}

// sameAll additionally compares the shard-layout-dependent counts.
func sameAll(a, b *fingerprint) (bool, string) {
	if ok, why := sameCore(a, b); !ok {
		return false, why
	}
	if a.Windows != b.Windows || a.Messages != b.Messages {
		return false, fmt.Sprintf("windows/messages %d/%d vs %d/%d", a.Windows, a.Messages, b.Windows, b.Messages)
	}
	return true, ""
}

// conservation drains the instance with its sources stopped and checks
// that every packet sent was delivered or dropped with a counted
// reason.
func conservation(in *instance) error {
	in.stop()
	in.sim.Run()
	sent, delivered := in.sent(), in.delivered()
	var drops uint64
	counters := make(map[string]uint64, 32)
	for _, n := range in.sim.Nodes() {
		for k := range counters {
			delete(counters, k)
		}
		n.CountersInto(counters)
		for k, v := range counters {
			if strings.HasPrefix(k, "drop_") || k == "rx_ring_full" {
				drops += v
			}
		}
		for _, ifc := range n.Ifaces() {
			drops += ifc.TxDrops
		}
	}
	if sent != delivered+drops {
		return fmt.Errorf("conservation: sent %d, delivered %d, dropped %d", sent, delivered, drops)
	}
	return nil
}
