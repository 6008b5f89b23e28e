package main

import (
	"encoding/binary"
	"errors"
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
	"srv6bpf/internal/nf/hybrid"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// hopInputs are the per-layer inputs a FIB walk of a workload's own
// packets yields: every packet as it looks at each hop, and what each
// hop did with it. The walk runs on a twin instance built from the
// same seed, so the measured simulation is never touched.
type hopInputs struct {
	walked  int // packets walked to their sink
	hops    int // links traversed
	pathNs  int64
	parse   [][]byte
	lookups []lookupIn
	selects []selectIn
	admits  []admitIn
	endBPF  []progIn
	lwt     []progIn
	static  []staticIn
	encap   []encapIn
	decap   [][]byte
}

type lookupIn struct {
	n     *netsim.Node
	dst   netip.Addr
	table int
}

type selectIn struct {
	r        *netsim.Route
	src, dst netip.Addr
	fl       uint32
}

type admitIn struct {
	ifc  *netsim.Iface
	size int
}

type progIn struct {
	end *core.EndBPF
	lwt *core.LWT
	n   *netsim.Node
	raw []byte
}

type staticIn struct {
	b   *seg6.Behaviour
	raw []byte
}

type encapIn struct {
	raw []byte
	src netip.Addr
	srh *packet.SRH
}

// perPkt divides an op count by the packets walked.
func (h *hopInputs) perPkt(n int) float64 {
	if h.walked == 0 {
		return 0
	}
	return float64(n) / float64(h.walked)
}

// walkTotal is how many generated packets a walk follows in total.
const walkTotal = 2048

// walkInstance follows the first packets of every source hop by hop
// through the instance's FIBs and attachments.
func walkInstance(in *instance) (*hopInputs, error) {
	h := &hopInputs{}
	per := walkTotal / len(in.sources)
	if per < 1 {
		per = 1
	}
	for _, s := range in.sources {
		for k := 0; k < per; k++ {
			if err := h.walk(s.node, s.packet(k)); err != nil {
				return nil, fmt.Errorf("walk from %s: %w", s.node.Name, err)
			}
		}
	}
	return h, nil
}

var errWalk = errors.New("packet left the modeled path")

func isDecap(a seg6.Action) bool {
	switch a {
	case seg6.ActionEndDT6, seg6.ActionEndDT4, seg6.ActionEndDT46, seg6.ActionEndDX6, seg6.ActionEndDX4:
		return true
	}
	return false
}

// walk follows one packet from node n until local delivery.
func (h *hopInputs) walk(n *netsim.Node, raw []byte) error {
	meta := netsim.PacketMeta{Local: true}
	table := netsim.MainTable
	for step := 0; step < 64; step++ {
		h.parse = append(h.parse, packet.Clone(raw))
		dst, err := packet.DstAddr(raw)
		if err != nil {
			return err
		}
		h.lookups = append(h.lookups, lookupIn{n: n, dst: dst, table: table})
		r := n.Lookup(dst, table)
		if r == nil {
			return fmt.Errorf("%w: no route to %s at %s", errWalk, dst, n.Name)
		}
		table = netsim.MainTable
		switch r.Kind {
		case netsim.RouteLocal:
			h.walked++
			return nil
		case netsim.RouteForward:
			info, err := packet.ParseInfo(raw)
			if err != nil {
				return err
			}
			src, _ := packet.IPv6Src(raw)
			h.selects = append(h.selects, selectIn{r: r, src: src, dst: dst, fl: info.FlowLabel})
			nh, _ := r.SelectPath(src, dst, info.FlowLabel)
			if nh == nil || nh.Iface == nil {
				return fmt.Errorf("%w: no nexthop at %s", errWalk, n.Name)
			}
			h.admits = append(h.admits, admitIn{ifc: nh.Iface, size: len(raw)})
			cfg := nh.Iface.Qdisc().Config()
			h.pathNs += cfg.DelayNs + nh.Iface.Qdisc().SerializationNs(len(raw))
			h.hops++
			n = nh.Iface.Peer().Node
			meta = netsim.PacketMeta{InIface: nh.Iface.Peer()}
		case netsim.RouteSeg6Local:
			b := r.Behaviour
			var res seg6.Result
			if e, ok := b.BPF.(*core.EndBPF); ok {
				h.endBPF = append(h.endBPF, progIn{end: e, n: n, raw: packet.Clone(raw)})
				res, _, err = e.RunSeg6Local(n, raw, &meta)
			} else {
				h.static = append(h.static, staticIn{b: b, raw: packet.Clone(raw)})
				if isDecap(b.Action) {
					h.decap = append(h.decap, packet.Clone(raw))
				}
				res, err = seg6.Apply(b, raw)
			}
			if err != nil {
				return err
			}
			switch res.Verdict {
			case seg6.VerdictForward:
			case seg6.VerdictForwardTable:
				table = res.Table
			default:
				return fmt.Errorf("%w: seg6local verdict %v at %s", errWalk, res.Verdict, n.Name)
			}
			raw = res.Pkt
		case netsim.RouteLWTBPF:
			l, ok := r.BPF.(*core.LWT)
			if !ok || len(r.Nexthops) > 0 {
				return fmt.Errorf("%w: unsupported LWT route at %s", errWalk, n.Name)
			}
			h.lwt = append(h.lwt, progIn{lwt: l, n: n, raw: packet.Clone(raw)})
			out, verdict, _, err := l.RunLWTOut(n, raw, &meta)
			if err != nil {
				return err
			}
			if verdict != netsim.LWTOK {
				return fmt.Errorf("%w: LWT dropped at %s", errWalk, n.Name)
			}
			if p, err := packet.Parse(out); err == nil && p.SRH != nil && p.InnerOff > 0 {
				h.encap = append(h.encap, encapIn{raw: packet.Clone(out[p.InnerOff:]), src: n.PrimaryAddress(), srh: p.SRH})
			}
			raw = out
		default:
			return fmt.Errorf("%w: route kind %v at %s", errWalk, r.Kind, n.Name)
		}
	}
	return fmt.Errorf("%w: routing loop", errWalk)
}

// resultSink keeps replayed results alive so the compiler cannot drop
// the calls that produce them.
var resultSink int

// timeBatch calls op over n inputs, whole passes at a time, until
// budget has elapsed, and returns the mean ns per call.
func timeBatch(tr *tracer, name string, n int, budget time.Duration, op func(i int)) float64 {
	if n == 0 {
		return 0
	}
	sp := tr.begin("replay." + name)
	defer tr.end(sp)
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// copyCost is the ns per call of refreshing a scratch buffer from the
// inputs: the replays of in-place layers pay it and subtract it.
func copyCost(tr *tracer, name string, raws [][]byte, budget time.Duration) float64 {
	var buf []byte
	return timeBatch(tr, name+".copy", len(raws), budget, func(i int) {
		buf = append(buf[:0], raws[i]...)
		resultSink += len(buf)
	})
}

func progRaws(ins []progIn) [][]byte {
	out := make([][]byte, len(ins))
	for i, p := range ins {
		out[i] = p.raw
	}
	return out
}

func staticRaws(ins []staticIn) [][]byte {
	out := make([][]byte, len(ins))
	for i, p := range ins {
		out[i] = p.raw
	}
	return out
}

func positive(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// newWRRMaps creates a conf/state pair shaped like the hybrid
// testbed's scheduler maps.
func newWRRMaps() (map[string]*maps.Map, error) {
	conf, err := maps.New(maps.Spec{Name: progs.WRRConfMap, Type: maps.Array, KeySize: 4, ValueSize: progs.WRRConfSize, MaxEntries: 1})
	if err != nil {
		return nil, err
	}
	v := make([]byte, progs.WRRConfSize)
	binary.LittleEndian.PutUint32(v[0:], 5)
	binary.LittleEndian.PutUint32(v[4:], 3)
	a0, a1 := hybrid.SIDCPELink0.As16(), hybrid.SIDCPELink1.As16()
	copy(v[8:24], a0[:])
	copy(v[24:40], a1[:])
	if err := conf.Update(bpf.PutUint32(0), v, maps.UpdateAny); err != nil {
		return nil, err
	}
	state, err := maps.New(maps.Spec{Name: progs.WRRStateMap, Type: maps.Array, KeySize: 4, ValueSize: progs.WRRStateSize, MaxEntries: 1})
	if err != nil {
		return nil, err
	}
	return map[string]*maps.Map{progs.WRRConfMap: conf, progs.WRRStateMap: state}, nil
}

// layerReport is the traced run's per-layer result.
type layerReport struct {
	values map[string]float64
	attrib []attribution
}

// attribution is one layer's share of the per-packet cost: its ns per
// call times its calls per delivered packet.
type attribution struct {
	layer         string
	ns, opsPerPkt float64
}

// replayLayers times every layer's public entry point on the
// workload's own hop inputs. Layers the workload never calls are
// timed on the inputs of the workload that does (lab-endbpf for
// End.BPF, hybrid-wrr for LWT and encap/decap); their ops per packet
// stay 0, so they add nothing to the attribution.
func replayLayers(w *workload, c runConfig, win *window, budget time.Duration, tr *tracer) (*layerReport, error) {
	own, err := w.build(c, nil)
	if err != nil {
		return nil, err
	}
	h, err := walkInstance(own)
	if err != nil {
		return nil, err
	}
	bpfIn, lwtIn := h, h
	if len(h.endBPF) == 0 {
		if bpfIn, err = fallbackWalk(labWorkload, c.seed); err != nil {
			return nil, err
		}
	}
	if len(h.lwt) == 0 {
		if lwtIn, err = fallbackWalk(hybridWorkload, c.seed); err != nil {
			return nil, err
		}
	}
	const layers = 16
	per := budget / layers
	v := make(map[string]float64)
	rep := &layerReport{values: v}
	// The walk already ran every input once, so any error a replayed
	// call returns is a layer misbehaving and fails the run.
	var replayErr error
	fail := func(err error) {
		if err != nil && replayErr == nil {
			replayErr = err
		}
	}

	// packet
	v["packet.parse_ns"] = timeBatch(tr, "packet.ParseInfo", len(h.parse), per, func(i int) {
		info, err := packet.ParseInfo(h.parse[i])
		fail(err)
		resultSink += info.L4Off
	})

	// netsim FIB
	v["netsim.fib_lookup_ns"] = timeBatch(tr, "netsim.Node.Lookup", len(h.lookups), per, func(i int) {
		l := &h.lookups[i]
		if l.n.Lookup(l.dst, l.table) != nil {
			resultSink++
		}
	})
	v["netsim.fib_select_ns"] = timeBatch(tr, "netsim.Route.SelectPath", len(h.selects), per, func(i int) {
		s := &h.selects[i]
		if nh, _ := s.r.SelectPath(s.src, s.dst, s.fl); nh != nil {
			resultSink++
		}
	})
	v["netsim.hops_per_pkt"] = h.perPkt(h.hops)

	// netsim event core, at the workload's in-flight heap depth:
	// offered rate times mean wire time per packet (Little's law),
	// plus one pending timer per source.
	depth := int(own.offeredPPS*float64(h.pathNs)/float64(h.walked)/1e9) + len(own.sources)
	v["netsim.event_heap_depth"] = float64(depth)
	v["netsim.event_ns"] = eventReplay(c.seed, depth, per, tr)

	// netem
	v["netem.admit_ns"] = admitReplay(c.seed, h.admits, per, tr)

	// seg6: static behaviours the workload runs; on lab-endbpf the
	// static End over R's inputs is the Fig. 2 baseline.
	static := h.static
	if len(static) == 0 {
		end := &seg6.Behaviour{Action: seg6.ActionEnd}
		for _, p := range bpfIn.endBPF {
			static = append(static, staticIn{b: end, raw: p.raw})
		}
	}
	var buf []byte
	raws := staticRaws(static)
	cc := copyCost(tr, "seg6.Apply", raws, per/4)
	v["seg6.apply_ns"] = positive(timeBatch(tr, "seg6.Apply", len(static), per, func(i int) {
		buf = append(buf[:0], static[i].raw...)
		res, err := seg6.Apply(static[i].b, buf)
		fail(err)
		resultSink += len(res.Pkt)
	}) - cc)
	v["seg6.encap_ns"] = timeBatch(tr, "seg6.Encap", len(lwtIn.encap), per, func(i int) {
		e := &lwtIn.encap[i]
		out, err := seg6.Encap(e.raw, e.src, e.srh)
		fail(err)
		resultSink += len(out)
	})
	v["seg6.decap_ns"] = timeBatch(tr, "seg6.DecapInner", len(lwtIn.decap), per, func(i int) {
		out, err := seg6.DecapInner(lwtIn.decap[i])
		fail(err)
		resultSink += len(out)
	})

	// core and bpf/vm
	v["core.end_bpf_ns"] = progReplay(tr, "core.EndBPF.RunSeg6Local", bpfIn.endBPF, per, fail)
	v["core.lwt_ns"] = progReplay(tr, "core.LWT.RunLWTOut", lwtIn.lwt, per, fail)
	primary, primaryNs := bpfIn.endBPF, v["core.end_bpf_ns"]
	if own.primary == "lwt" {
		primary, primaryNs = lwtIn.lwt, v["core.lwt_ns"]
	}
	insns, helpers := progCounts(primary)
	v["bpf.insns_per_run"] = insns
	v["bpf.helper_calls_per_run"] = helpers
	if insns == 0 {
		return nil, errors.New("replay: ProgStats counted no instructions")
	}
	v["bpf.ns_per_insn"] = primaryNs / insns

	// bpf loader and verifier
	specs := own.specs
	if len(specs) == 0 {
		lab, err := labWorkload.build(withSeed(labWorkload.main, c.seed), nil)
		if err != nil {
			return nil, err
		}
		specs = lab.specs
	}
	loadNs, err := loadReplay(tr, specs, per)
	if err != nil {
		return nil, err
	}
	v["bpf.load_ms"] = loadNs / 1e6

	// bpf/maps on the WRR maps
	mm, err := newWRRMaps()
	if err != nil {
		return nil, err
	}
	key := bpf.PutUint32(0)
	state := mm[progs.WRRStateMap]
	conf := mm[progs.WRRConfMap]
	v["maps.lookup_ns"] = timeBatch(tr, "maps.Map.LookupSlot", 2, per, func(i int) {
		m := conf
		if i == 1 {
			m = state
		}
		off, ok := m.LookupSlot(key)
		if !ok {
			fail(fmt.Errorf("replay: %s has no entry 0", m.Name()))
		}
		resultSink += off
	})
	val := make([]byte, progs.WRRStateSize)
	v["maps.update_ns"] = timeBatch(tr, "maps.Map.Update", 1, per, func(int) {
		val[0]++
		fail(state.Update(key, val, maps.UpdateAny))
	})

	// netsim/topo, route install and partition
	v["netsim.route_install_ms"] = routeInstallReplay(tr, own, per) / 1e6
	g := partition.FromSim(own.sim)
	var assign partition.Assignment
	mincutNs := timeBatch(tr, "partition.MinCut", 1, per, func(int) {
		assign, err = partition.MinCut(g, 2, minCutSeed)
	})
	if err != nil {
		return nil, err
	}
	v["partition.mincut_ms"] = mincutNs / 1e6
	if w == hybridWorkload {
		assign = hybridAssign
	}
	v["partition.cut_links"] = float64(partition.CutLinks(g, assign))

	if replayErr != nil {
		return nil, replayErr
	}

	// Attribution: layer ns times ops per delivered packet.
	events := 0.0
	if win.delivered > 0 {
		events = float64(win.events) / float64(win.delivered)
	}
	rep.attrib = []attribution{
		{"packet.parse", v["packet.parse_ns"], h.perPkt(len(h.parse))},
		{"netsim.fib_lookup", v["netsim.fib_lookup_ns"], h.perPkt(len(h.lookups))},
		{"netsim.fib_select", v["netsim.fib_select_ns"], h.perPkt(len(h.selects))},
		{"netsim.event", v["netsim.event_ns"], events},
		{"netem.admit", v["netem.admit_ns"], h.perPkt(len(h.admits))},
		{"seg6.apply", v["seg6.apply_ns"], h.perPkt(len(h.static))},
		{"core.end_bpf", v["core.end_bpf_ns"], h.perPkt(len(h.endBPF))},
		{"core.lwt", v["core.lwt_ns"], h.perPkt(len(h.lwt))},
	}
	return rep, nil
}

// fallbackWalk walks another workload's main configuration for a
// layer the measured workload never calls.
func fallbackWalk(w *workload, seed int64) (*hopInputs, error) {
	in, err := w.build(withSeed(w.main, seed), nil)
	if err != nil {
		return nil, err
	}
	return walkInstance(in)
}

// progReplay times End.BPF or LWT runs on fresh copies of the hop
// inputs, net of the copy.
func progReplay(tr *tracer, name string, ins []progIn, budget time.Duration, fail func(error)) float64 {
	cc := copyCost(tr, name, progRaws(ins), budget/4)
	var buf []byte
	meta := netsim.PacketMeta{}
	return positive(timeBatch(tr, name, len(ins), budget, func(i int) {
		p := &ins[i]
		buf = append(buf[:0], p.raw...)
		if p.end != nil {
			res, _, err := p.end.RunSeg6Local(p.n, buf, &meta)
			fail(err)
			resultSink += len(res.Pkt)
			return
		}
		out, _, _, err := p.lwt.RunLWTOut(p.n, buf, &meta)
		fail(err)
		resultSink += len(out)
	}) - cc)
}

// progCounts reads retired instructions and helper calls per run from
// the ProgStats of the attachments behind ins.
func progCounts(ins []progIn) (insns, helpers float64) {
	seen := make(map[any]bool)
	var runs, in, hc uint64
	for _, p := range ins {
		var st core.ProgStats
		switch {
		case p.end != nil && !seen[p.end]:
			seen[p.end] = true
			st = p.end.ProgStats()
		case p.lwt != nil && !seen[p.lwt]:
			seen[p.lwt] = true
			st = p.lwt.ProgStats()
		default:
			continue
		}
		runs += st.RunCnt
		in += st.InsnExecuted
		hc += st.HelperCalls
	}
	if runs == 0 {
		return 0, 0
	}
	return float64(in) / float64(runs), float64(hc) / float64(runs)
}

// eventReplay times Node.Schedule plus RunUntil of one no-op event
// over a heap pre-filled with depth far-future events.
func eventReplay(seed int64, depth int, budget time.Duration, tr *tracer) float64 {
	sim := netsim.New(seed)
	n := sim.AddNode("event-replay", netsim.HostCostModel())
	noop := func() {}
	const far = int64(1) << 50
	for i := 0; i < depth; i++ {
		n.Schedule(far+int64(i)*netsim.Microsecond, noop)
	}
	return timeBatch(tr, "netsim.Schedule+RunUntil", 64, budget, func(int) {
		t := sim.Now() + 1
		n.Schedule(t, noop)
		sim.RunUntil(t)
	})
}

// admitReplay feeds each link's admits to a twin qdisc built from the
// link's Config, advancing that twin's clock at 80% of its line rate.
func admitReplay(seed int64, ins []admitIn, budget time.Duration, tr *tracer) float64 {
	type twin struct {
		q   *netem.Qdisc
		now int64
	}
	twins := make(map[*netsim.Iface]*twin)
	order := make([]*twin, len(ins))
	steps := make([]int64, len(ins))
	for i, a := range ins {
		t := twins[a.ifc]
		if t == nil {
			t = &twin{q: netem.New(a.ifc.Qdisc().Config())}
			twins[a.ifc] = t
		}
		order[i] = t
		steps[i] = t.q.SerializationNs(a.size)*5/4 + 1
	}
	rng := rand.New(rand.NewSource(seed))
	return timeBatch(tr, "netem.Qdisc.Admit", len(ins), budget, func(i int) {
		t := order[i]
		t.now += steps[i]
		at, _ := t.q.Admit(t.now, ins[i].size, rng)
		resultSink += int(at & 1)
	})
}

// loadReplay times LoadProgram (assembly and verification) over the
// workload's program specs and returns ns per load.
func loadReplay(tr *tracer, specs []loadSpec, budget time.Duration) (float64, error) {
	type prepared struct {
		spec  *bpf.ProgramSpec
		hook  *bpf.Hook
		avail map[string]*maps.Map
		opts  bpf.LoadOptions
	}
	ps := make([]prepared, len(specs))
	for i, s := range specs {
		jit := s.jit
		ps[i] = prepared{spec: s.spec(), hook: s.hook(), opts: bpf.LoadOptions{JIT: &jit}}
		if s.newMaps != nil {
			m, err := s.newMaps()
			if err != nil {
				return 0, err
			}
			ps[i].avail = m
		}
	}
	var loadErr error
	ns := timeBatch(tr, "bpf.LoadProgram", len(ps), budget, func(i int) {
		if _, err := bpf.LoadProgram(ps[i].spec, ps[i].hook, ps[i].avail, ps[i].opts); err != nil {
			loadErr = err
		}
	})
	return ns, loadErr
}

// routeInstallReplay re-adds every node's main-table routes to fresh
// tables and returns ns per whole-FIB install.
func routeInstallReplay(tr *tracer, in *instance, budget time.Duration) float64 {
	var fibs [][]*netsim.Route
	for _, n := range in.sim.Nodes() {
		fibs = append(fibs, n.Table(netsim.MainTable).Routes())
	}
	return timeBatch(tr, "netsim.Table.Add", 1, budget, func(int) {
		for _, routes := range fibs {
			t := &netsim.Table{}
			for _, r := range routes {
				t.Add(r)
			}
			resultSink += len(t.Routes())
		}
	})
}
