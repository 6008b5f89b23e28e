package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/netsim/partition"
	"srv6bpf/internal/netsim/topo"
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
)

// runConfig selects one configuration of a workload. The seed drives
// every input the benchmark generates; shards and burst are engine
// settings that must never change a modeled output.
type runConfig struct {
	seed   int64
	shards int
	burst  int
}

func (c runConfig) String() string {
	return fmt.Sprintf("seed=%d shards=%d burst=%d", c.seed, c.shards, c.burst)
}

// workload is one seeded scenario. Chunk, warm-up and fingerprint
// times are virtual nanoseconds on a fixed grid starting at zero, so
// every configuration reaches the fingerprint point through the same
// RunUntil calls. Chunks last about 10 ms of host time: long enough to
// span short host stalls, short enough for thousands of chunks in a
// 30 s window, so that its fast decile rests on hundreds of them.
type workload struct {
	name string
	why  string

	chunkNs int64 // virtual length of one measured chunk
	warmNs  int64 // untimed warm-up before the first measured chunk
	fpNs    int64 // virtual time at which the fingerprint is taken

	// procs is GOMAXPROCS for every run of the workload. A one-shard
	// workload gets a second proc so that the garbage collector's
	// worker stays off its chunks. waxman-fwd gets one: its two shards
	// on two procs wait at every window barrier for a CPU whose
	// contention from other tenants is independent of the first, which
	// widens the spread between runs; on one proc they interleave, so
	// sharding is measured by what it costs, not by what parallelism
	// gains.
	procs int

	main     runConfig // the measured configuration
	shardAlt runConfig // same inputs at the other shard count
	burstAlt runConfig // same inputs at the other burst size

	build func(c runConfig, tr *tracer) (*instance, error)
}

// untracedTwin is the configuration every untraced run cross-checks:
// the alternative that runs on fewer shards, so it needs no second
// proc.
func (w *workload) untracedTwin() runConfig {
	if w.shardAlt.shards < w.main.shards {
		return w.shardAlt
	}
	return w.burstAlt
}

// instance is one built simulation of a workload.
type instance struct {
	sim     *netsim.Sim
	sources []*source
	sinks   []*sink
	// offeredPPS is the virtual packet rate all sources offer together.
	offeredPPS float64
	// buildNs is the wall time of the topology-building step.
	buildNs time.Duration
	// specs are the BPF programs the workload loads, for the load
	// replay; primary is the attachment kind whose runs dominate.
	specs   []loadSpec
	primary string
}

// loadSpec is one LoadProgram call the workload's setup makes.
type loadSpec struct {
	spec    func() *bpf.ProgramSpec
	hook    func() *bpf.Hook
	newMaps func() (map[string]*maps.Map, error)
	jit     bool
	label   string
}

// delivered is the number of packets every sink has received.
func (in *instance) delivered() uint64 {
	var n uint64
	for _, s := range in.sinks {
		n += s.pkts
	}
	return n
}

// sent is the number of packets every source has emitted.
func (in *instance) sent() uint64 {
	var n uint64
	for _, s := range in.sources {
		n += s.sent
	}
	return n
}

// start schedules every source's first packet.
func (in *instance) start() {
	for _, s := range in.sources {
		s.node.Schedule(s.startAt, s.fire)
	}
}

// stop halts every source; packets in flight still drain.
func (in *instance) stop() {
	for _, s := range in.sources {
		s.stopped = true
	}
}

// source is the benchmark's traffic generator: packet templates built
// at setup, replayed in a seeded cyclic pattern, each copy injected
// with Node.Output from an event on the sending node's clock.
type source struct {
	node    *netsim.Node
	tmpls   [][]byte
	pick    []uint8  // template index per packet
	labels  []uint32 // flow label per packet; nil keeps the template's
	gaps    []int64  // virtual ns to the next packet
	startAt int64

	i       int
	sent    uint64
	stopped bool
	fire    func() // tick bound once, so scheduling allocates nothing
}

func newSource(n *netsim.Node, tmpls [][]byte, pick []uint8, labels []uint32, gaps []int64, startAt int64) *source {
	s := &source{node: n, tmpls: tmpls, pick: pick, labels: labels, gaps: gaps, startAt: startAt}
	s.fire = s.tick
	return s
}

// packet builds the k-th packet of the pattern.
func (s *source) packet(k int) []byte {
	raw := packet.Clone(s.tmpls[s.pick[k%len(s.pick)]])
	if s.labels != nil {
		fl := s.labels[k%len(s.labels)] & 0xfffff
		raw[1] = raw[1]&0xf0 | uint8(fl>>16)
		raw[2] = uint8(fl >> 8)
		raw[3] = uint8(fl)
	}
	return raw
}

func (s *source) tick() {
	if s.stopped {
		return
	}
	s.node.Output(s.packet(s.i))
	s.sent++
	gap := s.gaps[s.i%len(s.gaps)]
	s.i++
	s.node.After(gap, s.fire)
}

// sink counts the UDP packets delivered on one port of one node. The
// byte and SRH-tag sums make the count content-sensitive: a TLV that
// was not added or a tag that was not incremented changes them.
type sink struct {
	name        string
	pkts, bytes uint64
	tagSum      uint64
}

func newSink(n *netsim.Node, port uint16) *sink {
	s := &sink{name: fmt.Sprintf("%s:%d", n.Name, port)}
	n.HandleUDP(port, func(_ *netsim.Node, p *packet.Packet, _ *netsim.PacketMeta) {
		s.pkts++
		s.bytes += uint64(len(p.Raw))
		if p.SRH != nil {
			s.tagSum += uint64(p.SRH.Tag)
		}
	})
	return s
}

// applyShards partitions sim for c. assign nil picks the min-cut
// partition.
func applyShards(sim *netsim.Sim, c runConfig, assign partition.Assignment, tr *tracer) error {
	if c.shards <= 1 {
		return nil
	}
	if assign == nil {
		sp := tr.begin("setup.partition.MinCut")
		a, err := partition.MinCut(partition.FromSim(sim), c.shards, minCutSeed)
		tr.end(sp)
		if err != nil {
			return err
		}
		assign = a
	}
	sp := tr.begin("setup.netsim.SetShards")
	err := sim.SetShardsPartitioned(c.shards, assign)
	tr.end(sp)
	return err
}

// minCutSeed fixes the partitioner's refinement order.
const minCutSeed = 1

// ---- lab-endbpf: the §3.2 lab, S1 -- R -- S2 ----

var (
	labS1Addr = netip.MustParseAddr("2001:db8:1::1")
	labRAddr  = netip.MustParseAddr("2001:db8:10::1")
	labS2Addr = netip.MustParseAddr("2001:db8:2::1")
	labSIDs   = []netip.Addr{
		netip.MustParseAddr("fc00:10::1"), // End
		netip.MustParseAddr("fc00:10::2"), // Tag++
		netip.MustParseAddr("fc00:10::3"), // Add TLV
	}
	labSpecs = []func() *bpf.ProgramSpec{progs.EndSpec, progs.TagIncrementSpec, progs.AddTLVSpec}
)

const (
	// labOfferedPPS is about 75% of R's modeled End.BPF capacity
	// (~560 kpps over the End/Tag++/Add TLV mix), so R never drops.
	labOfferedPPS = 420_000
	// labTrainMean is the mean length of a same-SID train.
	labTrainMean = 32
	// labTrainMax caps a train well below R's 512-packet rx ring.
	labTrainMax = 256
	// labPatternPkts is the length of the seeded train pattern.
	labPatternPkts = 8192
	// labWireGapNs spaces train packets back to back on S1's 10 Gb/s
	// link (152-byte packets).
	labWireGapNs = 122
)

var labWorkload = &workload{
	name:     "lab-endbpf",
	why:      "End.BPF JIT on R in same-SID trains at burst 32: packet, seg6, core and bpf/vm dominate and the burst caches engage",
	chunkNs:  10 * netsim.Millisecond,
	warmNs:   20 * netsim.Millisecond,
	fpNs:     60 * netsim.Millisecond,
	procs:    2,
	main:     runConfig{shards: 1, burst: 32},
	shardAlt: runConfig{shards: 2, burst: 32},
	burstAlt: runConfig{shards: 1, burst: 1},
	build:    buildLab,
}

func buildLab(c runConfig, tr *tracer) (*instance, error) {
	t0 := time.Now()
	sp := tr.begin("setup.topo.build")
	sim := netsim.New(c.seed)
	s1 := sim.AddNode("S1", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	s2 := sim.AddNode("S2", netsim.HostCostModel())
	s1.AddAddress(labS1Addr)
	r.AddAddress(labRAddr)
	s2.AddAddress(labS2Addr)
	tenG := netem.Config{RateBps: 10_000_000_000, DelayNs: 5 * netsim.Microsecond}
	s1If, rs1If := netsim.ConnectSymmetric(s1, r, tenG)
	rs2If, s2If := netsim.ConnectSymmetric(r, s2, tenG)
	tr.end(sp)
	buildNs := time.Since(t0)

	sp = tr.begin("setup.netsim.AddRoute")
	routes := []struct {
		n   *netsim.Node
		p   string
		out *netsim.Iface
	}{
		{s1, "::/0", s1If},
		{s2, "::/0", s2If},
		{r, "2001:db8:1::/48", rs1If},
		{r, "2001:db8:2::/48", rs2If},
	}
	for _, rt := range routes {
		if err := rt.n.AddRoute(&netsim.Route{
			Prefix: netip.MustParsePrefix(rt.p), Kind: netsim.RouteForward,
			Nexthops: []netsim.Nexthop{{Iface: rt.out}},
		}); err != nil {
			return nil, err
		}
	}
	tr.end(sp)

	in := &instance{sim: sim, offeredPPS: labOfferedPPS, buildNs: buildNs, primary: "end_bpf"}
	jit := true
	for i, mk := range labSpecs {
		sp := tr.begin("setup.bpf.LoadProgram")
		prog, err := bpf.LoadProgram(mk(), core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &jit})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return nil, err
		}
		if err := r.AddRoute(&netsim.Route{
			Prefix: netip.PrefixFrom(labSIDs[i], 128), Kind: netsim.RouteSeg6Local,
			Behaviour: end.Behaviour(),
		}); err != nil {
			return nil, err
		}
		in.specs = append(in.specs, loadSpec{spec: mk, hook: core.Seg6LocalHook, jit: true})
	}

	tmpls := make([][]byte, len(labSIDs))
	for i, sid := range labSIDs {
		port := uint16(9000 + i)
		in.sinks = append(in.sinks, newSink(s2, port))
		raw, err := packet.BuildPacket(labS1Addr, sid,
			packet.WithSRH(packet.NewSRH([]netip.Addr{sid, labS2Addr})),
			packet.WithUDP(1000, port), packet.WithPayload(make([]byte, 64)))
		if err != nil {
			return nil, err
		}
		tmpls[i] = raw
	}
	pick, gaps := labTrains(c.seed)
	in.sources = []*source{newSource(s1, tmpls, pick, nil, gaps, 0)}

	sim.SetBurst(c.burst)
	if err := applyShards(sim, c, nil, tr); err != nil {
		return nil, err
	}
	return in, nil
}

// labTrains draws the seeded train pattern: every SID gets the same
// number of packets, cut into trains of roughly geometric length with
// mean labTrainMean, and the trains are shuffled. Packets of a train
// go back to back; each train is followed by an idle gap sized so the
// train's own packets average labOfferedPPS.
func labTrains(seed int64) (pick []uint8, gaps []int64) {
	rng := rand.New(rand.NewSource(seed))
	type train struct {
		sid uint8
		n   int
	}
	var trains []train
	per := labPatternPkts / len(labSIDs)
	for sid := range labSIDs {
		for left := per; left > 0; {
			n := 1 + int(rng.ExpFloat64()*(labTrainMean-1))
			n = min(n, labTrainMax, left)
			trains = append(trains, train{uint8(sid), n})
			left -= n
		}
	}
	rng.Shuffle(len(trains), func(i, j int) { trains[i], trains[j] = trains[j], trains[i] })
	pace := int64(1e9) / labOfferedPPS
	for _, t := range trains {
		for j := 0; j < t.n; j++ {
			pick = append(pick, t.sid)
			gaps = append(gaps, labWireGapNs)
		}
		gaps[len(gaps)-1] = int64(t.n)*pace - int64(t.n-1)*labWireGapNs
	}
	return pick, gaps
}

// ---- waxman-fwd: the committed 256-node Waxman scenario ----

const (
	waxNodes      = 256
	waxAlpha      = 0.25
	waxBeta       = 0.15
	waxGraphSeed  = 20
	waxHostPPS    = 20_000
	waxFlowLabels = 16
	waxLabelCycle = 64
	waxPermSeed   = 99
)

var waxmanWorkload = &workload{
	name:     "waxman-fwd",
	why:      "plain IPv6 permutation over 256 Waxman nodes on 2 min-cut shards: event core, FIB/ECMP, netem and shard sync; burst caches bypassed",
	chunkNs:  250 * netsim.Microsecond,
	warmNs:   netsim.Millisecond,
	fpNs:     8 * netsim.Millisecond,
	procs:    1,
	main:     runConfig{shards: 2, burst: 1},
	shardAlt: runConfig{shards: 1, burst: 1},
	burstAlt: runConfig{shards: 2, burst: 32},
	build:    buildWaxman,
}

func buildWaxman(c runConfig, tr *tracer) (*instance, error) {
	t0 := time.Now()
	sp := tr.begin("setup.topo.Waxman")
	sim := netsim.New(c.seed)
	nw, err := topo.Waxman(sim, waxNodes, topo.WaxmanParams{
		Alpha: waxAlpha, Beta: waxBeta, Seed: waxGraphSeed,
	}, topo.Opts{Link: topo.LinkSpec{RateBps: 10_000_000_000, DelayNs: 25 * netsim.Microsecond}})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &instance{sim: sim, buildNs: time.Since(t0), offeredPPS: waxNodes * waxHostPPS}

	// The traffic matrix is the committed scenario's permutation; the
	// seed draws each host's start phase and flow-label sequence.
	rng := rand.New(rand.NewSource(c.seed))
	gap := []int64{int64(1e9 / waxHostPPS)}
	for _, pr := range nw.PermutationPairs(waxPermSeed) {
		src, dst := pr[0], pr[1]
		in.sinks = append(in.sinks, newSink(dst, 9))
		raw, err := packet.BuildPacket(src.PrimaryAddress(), dst.PrimaryAddress(),
			packet.WithUDP(1000, 9), packet.WithPayload(make([]byte, 64)))
		if err != nil {
			return nil, err
		}
		labels := make([]uint32, waxLabelCycle)
		for i := range labels {
			labels[i] = uint32(rng.Intn(waxFlowLabels))
		}
		in.sources = append(in.sources, newSource(src, [][]byte{raw}, []uint8{0}, labels, gap, rng.Int63n(gap[0])))
	}
	sim.SetBurst(c.burst)
	if err := applyShards(sim, c, nil, tr); err != nil {
		return nil, err
	}
	return in, nil
}

// ---- hybrid-wrr: the §4.2 hybrid-access testbed ----

const (
	// hybridDirBps is the offered rate per direction: with the 64-byte
	// encapsulation overhead the WRR 5:3 split loads both access links
	// to about 84%, close to the 80 Mb/s aggregate without overflow.
	hybridDirBps       = 62_000_000
	hybridPatternPkts  = 4095
	hybridIPv6UDPBytes = 48
)

var hybridPayloads = []int{64, 576, 1400}

var hybridWorkload = &workload{
	name:     "hybrid-wrr",
	why:      "interpreted WRR LWT both ways over jittered 50/30 Mb/s links: map writes, encap/decap allocation, deep event heap and netem queues",
	chunkNs:  40 * netsim.Millisecond,
	warmNs:   100 * netsim.Millisecond,
	fpNs:     600 * netsim.Millisecond,
	procs:    2,
	main:     runConfig{shards: 1, burst: 1},
	shardAlt: runConfig{shards: 2, burst: 1},
	burstAlt: runConfig{shards: 1, burst: 32},
	build:    buildHybrid,
}

// hybridAssign pins S1 and S2 to one shard and A and M to the other:
// the jittered access links may not cross shards under the
// conservative engine, so only the two stub links are cut.
var hybridAssign = partition.Assignment{0, 1, 1, 0} // S1, A, M, S2

func buildHybrid(c runConfig, tr *tracer) (*instance, error) {
	t0 := time.Now()
	sp := tr.begin("setup.topo.hybrid")
	sim := netsim.New(c.seed)
	tb, err := hybrid.NewTestbed(sim, hybrid.Params{
		Link0: hybrid.LinkSpec{RateBps: 50_000_000, OneWayDelay: 15 * netsim.Millisecond, OneWayJitter: 2_500_000, QueueLimit: 300},
		Link1: hybrid.LinkSpec{RateBps: 30_000_000, OneWayDelay: 2_500_000, OneWayJitter: 1_000_000, QueueLimit: 300},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &instance{sim: sim, buildNs: time.Since(t0), primary: "lwt"}
	sp = tr.begin("setup.core.AttachWRR")
	err = tb.EnableWRRDownstream()
	if err == nil {
		err = tb.EnableWRRUpstream()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.specs = []loadSpec{
		{spec: progs.WRRSpec, hook: core.LWTOutHook, newMaps: newWRRMaps},
		{spec: progs.WRRSpec, hook: core.LWTOutHook, newMaps: newWRRMaps},
	}

	rng := rand.New(rand.NewSource(c.seed))
	dirs := []struct {
		from, to *netsim.Node
		dst      netip.Addr
	}{
		{tb.S1, tb.S2, hybrid.S2Addr},
		{tb.S2, tb.S1, hybrid.S1Addr},
	}
	for _, d := range dirs {
		in.sinks = append(in.sinks, newSink(d.to, 9))
		tmpls := make([][]byte, len(hybridPayloads))
		for i, n := range hybridPayloads {
			raw, err := packet.BuildPacket(d.from.PrimaryAddress(), d.dst,
				packet.WithUDP(1000, 9), packet.WithPayload(make([]byte, n)))
			if err != nil {
				return nil, err
			}
			tmpls[i] = raw
		}
		// Equal counts of each size in a seeded order.
		pick := make([]uint8, hybridPatternPkts)
		for i := range pick {
			pick[i] = uint8(i % len(hybridPayloads))
		}
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		gaps := make([]int64, hybridPatternPkts)
		var bits float64
		for i, k := range pick {
			b := float64((hybridPayloads[k] + hybridIPv6UDPBytes) * 8)
			gaps[i] = int64(b * 1e9 / hybridDirBps)
			bits += b
		}
		in.offeredPPS += float64(hybridPatternPkts) * hybridDirBps / bits
		in.sources = append(in.sources, newSource(d.from, tmpls, pick, nil, gaps, rng.Int63n(netsim.Millisecond)))
	}
	sim.SetBurst(c.burst)
	if err := applyShards(sim, c, hybridAssign, tr); err != nil {
		return nil, err
	}
	return in, nil
}

var workloads = []*workload{labWorkload, waxmanWorkload, hybridWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
