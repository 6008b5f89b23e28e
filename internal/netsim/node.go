package netsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"

	"srv6bpf/internal/obs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// PacketMeta travels with a packet through one node.
type PacketMeta struct {
	// RxTimestamp is when the packet arrived at the node (the "RX
	// software timestamp" End.DM reads, §4.1).
	RxTimestamp int64
	// InIface is the receiving interface (nil for local output).
	InIface *Iface
	// Local marks locally-originated packets, which are exempt from
	// hop-limit decrement.
	Local bool
}

// Seg6LocalProgram is implemented by internal/core's End.BPF
// attachment. It runs the program against raw and reports the
// resulting seg6 verdict plus the virtual CPU cost of the BPF
// execution.
type Seg6LocalProgram interface {
	RunSeg6Local(n *Node, raw []byte, meta *PacketMeta) (seg6.Result, int64, error)
}

// LWTVerdict is the outcome of a transit (BPF LWT) program.
type LWTVerdict int

// LWT program verdicts (subset of BPF_OK/BPF_DROP relevant to the
// lwt_out hook; redirect semantics only exist for seg6local).
const (
	LWTOK LWTVerdict = iota
	LWTDrop
)

// LWTProgram is implemented by internal/core's LWT BPF attachment
// (the transit hook used for encapsulation, §2.1/§4.1/§4.2). It may
// return a rewritten packet.
type LWTProgram interface {
	RunLWTOut(n *Node, raw []byte, meta *PacketMeta) ([]byte, LWTVerdict, int64, error)
}

// UDPHandler receives locally-delivered UDP packets.
type UDPHandler func(n *Node, p *packet.Packet, meta *PacketMeta)

// commitOp selects the deferred effect of a processed packet. The
// routing functions fill a pendingCommit instead of returning a
// closure: the commit lives in a node field (checkpointed with the
// node), so the steady-state packet path allocates nothing.
type commitOp uint8

const (
	commitNone commitOp = iota
	// commitTransmit sends raw out of iface, decrementing the hop
	// limit first for transit packets.
	commitTransmit
	// commitLocal delivers raw to the node's local transport layer.
	commitLocal
	// commitFn runs fn (cold paths: ICMP error generation).
	commitFn
)

// pendingCommit is the deferred effect of one routed packet plus the
// packet's metadata. Node.pending carries it from a drain event to
// the drain continuation and is checkpointed with the node — the raw
// bytes it may share with queued events are guarded by the same pktEra
// machinery that guards the events themselves. Node.outPending is the
// intra-event twin for the Output path (routed and committed inside
// one event, so never checkpointed).
type pendingCommit struct {
	op       commitOp
	decHop   bool
	hopLimit uint8
	iface    *Iface
	raw      []byte
	era      uint64
	meta     PacketMeta
	fn       func()
}

// flowEntry caches one parsed flow inside a burst epoch. Validity is
// proven per lookup — same epoch, same length, byte-equal headers up
// to the L4 offset — so the cache is pure: Info is a function of the
// compared bytes, and a stale or rolled-back entry can only miss,
// never lie.
type flowEntry struct {
	rawLen int
	hdr    []byte // copy of raw[:info.L4Off] at fill time
	info   packet.Info
	src    netip.Addr
	dst    netip.Addr
	// r memoises the main-table lookup for dst, valid while rVer still
	// equals the table's version (routes cannot change during
	// speculation, so a version match is also rollback-safe). Fills
	// reset rVer to the sentinel so a recycled entry can never leak the
	// previous flow's route.
	r    *Route
	rVer uint64
}

// flowRouteInvalid marks a flowEntry's route memo as unfilled; table
// versions count up from zero and cannot reach it.
const flowRouteInvalid = ^uint64(0)

// routeMemoEntry caches one main-table FIB walk; valid while the
// table version still matches. Versions only ever increase (routes
// cannot change during speculation, so rollback cannot rewind one),
// making (version, dst) → route a pure function.
type routeMemoEntry struct {
	dst netip.Addr
	r   *Route
	ver uint64
}

// rxItem is one packet waiting in the receive ring.
type rxItem struct {
	raw  []byte
	meta PacketMeta
	// cross marks a cross-shard delivery: its bytes are shared with
	// the optimistic engine's input log, so processing must not
	// mutate them in place. ckptSeq is the owning shard's checkpoint
	// count when the delivery event was created: if it still matches
	// at processing time, no retained checkpoint references the
	// buffer (see Node.drain).
	cross   bool
	ckptSeq uint64
}

// Counter is a pre-resolved handle to one named counter cell. The
// forwarding fast path increments through handles resolved once at
// node creation instead of hashing a string key per packet; the
// Counters() map remains the read-side view over the same cells.
type Counter struct{ cell *uint64 }

// Inc bumps the counter.
func (c Counter) Inc() { *c.cell++ }

// Add bumps the counter by d.
func (c Counter) Add(d uint64) { *c.cell += d }

// Value reads the counter.
func (c Counter) Value() uint64 { return *c.cell }

// hotCounters are the handles the per-packet paths touch.
type hotCounters struct {
	rxRingFull         Counter
	dropMalformed      Counter
	dropNoRoute        Counter
	dropRouteLoop      Counter
	dropHopLimit       Counter
	dropNoNexthop      Counter
	dropSeg6Local      Counter
	dropSeg6LocalError Counter
	dropLWTBPF         Counter
	dropLWTBPFError    Counter
	dropMalformedLocal Counter
	dropLinkDown       Counter
	backupTx           Counter
	udpDelivered       Counter
	tcpDelivered       Counter
	icmpDelivered      Counter
}

// maxRouteDepth bounds recursive route resolution (behaviour chains,
// encapsulation re-lookups).
const maxRouteDepth = 6

// Node is a simulated host or router: interfaces, routing tables, a
// single-core CPU with a receive ring, and a local transport layer.
type Node struct {
	Name string
	Sim  *Sim
	Cost CostModel

	// idx is the node's global creation index: the src half of every
	// event key this node schedules.
	idx int32
	// shard owns this node's events; in an unsharded sim it is the
	// sim's only shard.
	shard *shard
	// rng is the node's private random stream, derived from the sim
	// seed and the node name: draws are independent of other nodes'
	// activity, so ECMP tie-breaking and netem jitter stay
	// deterministic under any shard count. It draws from rngSrc, a
	// single-word splitmix64 source, so checkpoints capture and
	// restore the stream exactly.
	rng    *rand.Rand
	rngSrc randSource
	// schedK numbers this node's Schedule calls (the k half of the
	// event key).
	schedK uint64

	ifaces []*Iface
	tables map[int]*Table
	// mainTbl hoists tables[MainTable] out of the per-packet map
	// access. Table objects are created once and never replaced
	// (Table() only ever inserts), so the pointer stays valid for the
	// node's lifetime — including across optimistic rollbacks, which
	// restore table *contents* in place.
	mainTbl *Table
	// tableOrder lists the table ids in sorted order (maintained on
	// table creation), so checkpoint snapshots iterate the FIB
	// deterministically without sorting per snapshot.
	tableOrder []int
	local      map[netip.Addr]bool
	// primary is the address used as source for generated ICMP.
	primary netip.Addr

	udpHandlers map[uint16]UDPHandler
	tcpHandler  func(n *Node, p *packet.Packet, meta *PacketMeta)
	icmpHandler func(n *Node, p *packet.Packet, meta *PacketMeta)
	// l2Handler receives Ethernet frames decapsulated by End.DX2.
	l2Handler func(n *Node, frame []byte, meta *PacketMeta)

	// ifaceInputs binds an interface to the return leg of an SR proxy
	// (End.AS / End.AM): packets arriving on it run the behaviour's
	// Inbound step instead of a FIB lookup. ifaceTables binds an
	// interface to a routing table (VRF-style per-tenant lookup for
	// the End.DT* scenarios). Both are configuration, like
	// udpHandlers: set at topology-build time, not checkpointed.
	ifaceInputs map[*Iface]*seg6.Behaviour
	ifaceTables map[*Iface]int

	// rxq is a ring buffer: rxCount items starting at rxHead. It
	// grows geometrically up to Cost.RxRingPackets, so draining one
	// packet is two index updates, not a slice reallocation.
	rxq     []rxItem
	rxHead  int
	rxCount int
	busy    bool

	// counters holds the interned counter cells; Counter handles
	// point into it. Counters() materialises the read-side map.
	// counterNames/counterCells repeat the interning in order, so a
	// checkpoint snapshots the whole set as one flat value copy and a
	// rollback can forget cells interned during undone speculation.
	counters     map[string]*uint64
	counterNames []string
	counterCells []*uint64
	hot          hotCounters

	// crashed marks the node as down: the CPU halts, the receive ring
	// is lost and all local link ends are failed until restart.
	// crashEpoch counts crashes; CPU continuations capture it when
	// scheduled and become no-ops if a crash intervened, so work from a
	// previous incarnation never leaks past a restart.
	crashed    bool
	crashEpoch uint64

	// dirty marks the node as mutated since its last fresh checkpoint
	// snapshot: event execution, packet receive, interface flips and
	// counter interning all set it. The optimistic engine's
	// incremental checkpoints copy only dirty nodes; a clean node's
	// entry aliases the previous checkpoint's snapshot.
	dirty bool
	// pktEra is the shard's checkpoint count when the packet this
	// node is currently processing last became private (copied or
	// freshly built). Transmit stamps it into same-shard delivery
	// events instead of the current count: a checkpoint taken while
	// the packet sits in a pending commit closure makes its buffer
	// rollback-reachable, and the stale stamp is what tells the
	// receiving drain to copy before mutating (see Node.drain).
	pktEra uint64

	// pending is the deferred effect of the packet currently being
	// processed by the drain chain: filled at routing time, applied by
	// the drain continuation at processing-completion time. It is part
	// of the node's checkpointed state — a checkpoint taken between a
	// drain and its continuation captures it by value (sharing the raw
	// bytes, which the pktEra machinery already guards). outPending is
	// the same storage for the Output path, which routes and commits
	// inside one event and therefore never needs checkpointing.
	pending    pendingCommit
	outPending pendingCommit

	// burst is the sim's packet-burst knob (Sim.SetBurst); 1 disables
	// all burst caching. burstSeq is the current burst-cache epoch:
	// bumped whenever a new burst starts and on every crash or
	// rollback restore, it gates attachment bind-skipping (the one
	// burst cache that is not self-validating). burstLeft counts
	// packets remaining in the current epoch; burstNextAt is when
	// processing of the last packet completes — the epoch extends only
	// while the next drain lands exactly there (back-to-back CPU work
	// at one virtual instant per the same-timestamp eligibility rule).
	burst       int
	burstLeft   int
	burstNextAt int64
	burstSeq    uint64

	// flows is the burst-mode parse cache (two entries: SRH advance at
	// an endpoint alternates pre/post-advance byte patterns), and
	// routeMemo the FIB memo for the main table. Both are pure caches:
	// validity is proven per lookup against a private header copy
	// (byte equality + length) or the table version, both functions of
	// nothing but the probed input. They therefore need no epoch
	// gating and no snapshot — rollback cannot make a matching entry
	// wrong, only unused — and survive idle gaps in the drain cadence
	// (a sink whose packets arrive slower than it drains them still
	// hits the cache).
	flows     [2]flowEntry
	flowClock uint8
	routeMemo [4]routeMemoEntry
	memoClock uint8

	// scratchPkt/scratchSRH back deliverLocal's allocation-free parse.
	// The *packet.Packet handed to local handlers aliases them and is
	// valid only for the duration of the handler call.
	scratchPkt packet.Packet
	scratchSRH packet.SRH
	// scratchHdr/scratchRawLen validate reusing scratchPkt without
	// reparsing: every Packet field except Raw is a function of
	// raw[:L4Off] (transport ports and payload are read from Raw by
	// the handlers), so when a later same-length packet matches those
	// bytes exactly, the previous parse is the correct parse and only
	// Raw needs rebinding. scratchHdr is a private copy, so the check
	// is pure — no epoch gating needed (see the flows comment). An
	// empty scratchHdr means no valid parse is cached.
	scratchHdr    []byte
	scratchRawLen int

	// stateHooks are the ShardState components checkpointed with this
	// node (traffic generators, NF control loops, journals).
	stateHooks []stateHook

	// obs points at the sim's observability plane; nil keeps the hot
	// path to a single pointer compare per hop. traceBuf is this
	// node's flight-recorder journal (nil unless the recorder is on);
	// spanIdx indexes the span of the hop currently being processed,
	// -1 between hops and for unsampled packets — the datapath's
	// verdict hooks test it, making them free when recording is off.
	obs      *simObs
	traceBuf *obs.TraceBuf
	spanIdx  int

	// Trace, when set, receives a line per interesting event.
	Trace func(format string, args ...any)
}

// AddNode creates a node in s with the given cost model. Add every
// node before calling Sim.SetShards: the shard partition is computed
// over the node set.
func (s *Sim) AddNode(name string, cost CostModel) *Node {
	if len(s.shards) > 1 {
		panic("netsim: AddNode after SetShards; build the topology first")
	}
	n := &Node{
		Name:        name,
		Sim:         s,
		Cost:        cost,
		idx:         int32(len(s.nodes)),
		shard:       s.shards[0],
		rngSrc:      randSource{state: uint64(nodeSeed(s.seed, name))},
		tables:      map[int]*Table{MainTable: {}},
		tableOrder:  []int{MainTable},
		local:       make(map[netip.Addr]bool),
		udpHandlers: make(map[uint16]UDPHandler),
		counters:    make(map[string]*uint64),
		spanIdx:     -1,
		burst:       s.burst,
	}
	n.rng = rand.New(&n.rngSrc)
	if s.obs != nil {
		s.obs.attachNode(n)
	}
	n.hot = hotCounters{
		rxRingFull:         n.CounterHandle("rx_ring_full"),
		dropMalformed:      n.CounterHandle("drop_malformed"),
		dropNoRoute:        n.CounterHandle("drop_no_route"),
		dropRouteLoop:      n.CounterHandle("drop_route_loop"),
		dropHopLimit:       n.CounterHandle("drop_hop_limit"),
		dropNoNexthop:      n.CounterHandle("drop_no_nexthop"),
		dropSeg6Local:      n.CounterHandle("drop_seg6local"),
		dropSeg6LocalError: n.CounterHandle("drop_seg6local_error"),
		dropLWTBPF:         n.CounterHandle("drop_lwt_bpf"),
		dropLWTBPFError:    n.CounterHandle("drop_lwt_bpf_error"),
		dropMalformedLocal: n.CounterHandle("drop_malformed_local"),
		dropLinkDown:       n.CounterHandle("drop_link_down"),
		backupTx:           n.CounterHandle("backup_tx"),
		udpDelivered:       n.CounterHandle("udp_delivered"),
		tcpDelivered:       n.CounterHandle("tcp_delivered"),
		icmpDelivered:      n.CounterHandle("icmp_delivered"),
	}
	s.nodes = append(s.nodes, n)
	return n
}

// nodeSeed splits a per-node stream from the sim seed: FNV-1a over
// the node name, folded into the seed. Depends only on (seed, name),
// never on creation interleaving or shard layout.
func nodeSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Now returns the virtual time of this node's shard — exact inside
// events in both sequential and sharded runs. Code executing on
// behalf of a node should prefer it over Sim.Now.
func (n *Node) Now() int64 { return n.shard.now }

// Rand returns the node's private random stream (netem jitter/loss on
// the node's egress links, BPF get_prandom on this node).
func (n *Node) Rand() *rand.Rand { return n.rng }

// CrashResettable is implemented by registered ShardState components
// whose runtime state lives in the node's memory and therefore does
// not survive a node crash (NF daemons, detectors, caches). On crash
// the component is reset in place — distinct from RestoreState, which
// rewinds to a snapshot: a restarted daemon comes up empty, not at
// its pre-crash state. Durable state (configuration, counters kept by
// the test harness) is the component's own concern.
type CrashResettable interface {
	CrashReset()
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed }

// crashNow takes the node down at the current virtual instant: the
// receive ring is flushed (counted as crash_rx_lost), every local
// link end fails (in-flight packets towards the node die), and
// registered NF state implementing CrashResettable is reset. Counters
// survive — they model the observer, not the node's RAM. Runs on the
// node's shard; peers' link ends flip in their own shards (see
// Sim.CrashNode). Crashing a crashed node is a no-op.
func (n *Node) crashNow() {
	if n.crashed {
		return
	}
	n.dirty = true
	n.crashed = true
	n.crashEpoch++
	n.Count("node_crash")
	if n.rxCount > 0 {
		*n.internCounter("crash_rx_lost") += uint64(n.rxCount)
		for n.rxCount > 0 {
			n.rxPop()
		}
	}
	n.busy = false
	// The packet being processed dies with the box; any cached burst
	// state belongs to the previous incarnation.
	n.pending = pendingCommit{}
	n.burstSeq++
	n.burstLeft = 0
	for _, i := range n.ifaces {
		i.setOneEnd(false)
	}
	for _, h := range n.stateHooks {
		if cr, ok := h.s.(CrashResettable); ok {
			cr.CrashReset()
		}
	}
	if n.Trace != nil {
		n.Trace("%s: crashed", n.Name)
	}
}

// restartNow brings a crashed node back: local link ends come up and
// the (empty) CPU is ready to receive. Restarting a running node is a
// no-op.
func (n *Node) restartNow() {
	if !n.crashed {
		return
	}
	n.dirty = true
	n.crashed = false
	n.Count("node_restart")
	for _, i := range n.ifaces {
		i.setOneEnd(true)
	}
	if n.Trace != nil {
		n.Trace("%s: restarted", n.Name)
	}
}

// stateHook pairs a registered ShardState with its state at
// registration time, so a rollback that crosses the registration
// point can rewind the component and unhook it again.
type stateHook struct {
	s   ShardState
	reg any
}

// RegisterState attaches a component's mutable state to this node's
// checkpoint/rollback machinery: under the optimistic engine the
// component is snapshotted with the node and rewound on rollback.
// Components whose state is mutated from events (traffic generators,
// NF control loops, test observers) must register, or speculative
// execution would leak into their committed state.
//
// Call it from setup code or from an event running on this node's
// shard. Registering the same value twice is a no-op; the value must
// be of a comparable type (implementations are pointers in practice).
func (n *Node) RegisterState(s ShardState) {
	for _, h := range n.stateHooks {
		if h.s == s {
			return
		}
	}
	n.dirty = true
	n.stateHooks = append(n.stateHooks, stateHook{s: s, reg: s.SnapshotState()})
}

// Schedule runs fn at absolute virtual time at (clamped to now) on
// this node's shard. Use it — not Sim.Schedule — for any event that
// touches this node's state; in a sharded run that routing is what
// keeps the event on the owning shard's goroutine.
func (n *Node) Schedule(at int64, fn func()) {
	sh := n.shard
	if at < sh.now {
		at = sh.now
	}
	n.dirty = true
	n.schedK++
	sh.events.push(at, sh.now, n.idx, n.schedK).fn = fn
}

// After runs fn d nanoseconds from the node's now on its shard.
func (n *Node) After(d int64, fn func()) { n.Schedule(n.shard.now+d, fn) }

// CounterHandle interns name and returns its pre-resolved handle.
// Resolve once, increment per packet.
func (n *Node) CounterHandle(name string) Counter {
	return Counter{cell: n.internCounter(name)}
}

// internCounter returns (creating if needed) the cell for name,
// recording creation order so checkpoints snapshot the set as a flat
// slice and rollback can forget speculatively interned cells.
func (n *Node) internCounter(name string) *uint64 {
	c := n.counters[name]
	if c == nil {
		c = new(uint64)
		n.dirty = true
		n.counters[name] = c
		n.counterNames = append(n.counterNames, name)
		n.counterCells = append(n.counterCells, c)
	}
	return c
}

// Count bumps a named counter. Cold paths use it directly; per-packet
// paths go through pre-resolved handles instead.
func (n *Node) Count(what string) {
	*n.internCounter(what)++
}

// Counters returns the read-side view of all counters: free-form
// event accounting ("drop_no_route", "rx_ring_full", ...). Read it in
// tests and reports; the snapshot is freshly built per call. Polling
// loops should reuse a map through CountersInto instead.
func (n *Node) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(n.counters))
	n.CountersInto(out)
	return out
}

// CountersInto writes the current counter values into m without
// allocating: the zero-alloc read side for hot polling loops that
// sample hundreds of nodes per virtual tick. Keys absent from the
// node's counter set are left untouched, so clear or reuse m
// deliberately.
func (n *Node) CountersInto(m map[string]uint64) {
	for k, v := range n.counters {
		m[k] = *v
	}
}

// Ifaces returns the node's interfaces.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// AddAddress assigns a local address: the node delivers packets for
// it locally.
func (n *Node) AddAddress(addr netip.Addr) {
	n.local[addr] = true
	if !n.primary.IsValid() {
		n.primary = addr
	}
	n.Table(MainTable).Add(&Route{
		Prefix: netip.PrefixFrom(addr, addr.BitLen()),
		Kind:   RouteLocal,
	})
}

// PrimaryAddress returns the node's first assigned address.
func (n *Node) PrimaryAddress() netip.Addr { return n.primary }

// IsLocal reports whether addr is assigned to this node.
func (n *Node) IsLocal(addr netip.Addr) bool { return n.local[addr] }

// Table returns (creating if needed) the routing table with id.
func (n *Node) Table(id int) *Table {
	t, ok := n.tables[id]
	if !ok {
		t = &Table{}
		n.dirty = true
		n.tables[id] = t
		n.tableOrder = append(n.tableOrder, id)
		sort.Ints(n.tableOrder)
	}
	return t
}

// AddRoute validates r and inserts it into the main table. Like the
// kernel's build_state for lightweight tunnels, behaviour parameters
// are checked at install time: a seg6local route whose behaviour the
// registry rejects (missing nexthop, unsupported flavor, no SRH) never
// makes it into the FIB, instead of silently eating packets later.
func (n *Node) AddRoute(r *Route) error {
	if err := validateRoute(r); err != nil {
		return err
	}
	n.Table(MainTable).Add(r)
	return nil
}

// validateRoute applies the install-time checks of AddRoute.
func validateRoute(r *Route) error {
	switch r.Kind {
	case RouteSeg6Local:
		if r.Behaviour == nil {
			return fmt.Errorf("netsim: seg6local route %s has no behaviour", r.Prefix)
		}
		return seg6.Validate(r.Behaviour)
	case RouteSeg6Encap:
		if r.SRH == nil {
			return fmt.Errorf("netsim: seg6 encap route %s has no SRH", r.Prefix)
		}
		if _, err := r.SRH.ActiveSegment(); err != nil {
			return fmt.Errorf("netsim: seg6 encap route %s: %w", r.Prefix, err)
		}
	}
	return nil
}

// Lookup performs a FIB lookup in the given table.
func (n *Node) Lookup(dst netip.Addr, table int) *Route {
	return n.tables[table].Lookup(dst)
}

// HandleUDP registers a UDP listener on port.
func (n *Node) HandleUDP(port uint16, h UDPHandler) { n.udpHandlers[port] = h }

// HandleTCP registers the node's TCP input (internal/tcpsim).
func (n *Node) HandleTCP(h func(n *Node, p *packet.Packet, meta *PacketMeta)) {
	n.tcpHandler = h
}

// HandleICMP registers the node's ICMPv6 input (traceroute clients).
func (n *Node) HandleICMP(h func(n *Node, p *packet.Packet, meta *PacketMeta)) {
	n.icmpHandler = h
}

// HandleL2 registers the node's Ethernet input: End.DX2 without an
// OIF hands decapsulated frames here.
func (n *Node) HandleL2(h func(n *Node, frame []byte, meta *PacketMeta)) {
	n.l2Handler = h
}

// BindProxyReturn wires the return leg of an SR proxy: packets
// arriving on in run b's Inbound step (End.AS re-encapsulation,
// End.AM de-masquerading) instead of a FIB lookup. b is normally the
// same Behaviour installed under the proxy's SID.
func (n *Node) BindProxyReturn(in *Iface, b *seg6.Behaviour) error {
	if in == nil || in.Node != n {
		return fmt.Errorf("netsim: BindProxyReturn: interface does not belong to %s", n.Name)
	}
	sp := seg6.Lookup(b.Action)
	if sp == nil || sp.Inbound == nil {
		return fmt.Errorf("netsim: BindProxyReturn: %v has no inbound step", b.Action)
	}
	if err := seg6.Validate(b); err != nil {
		return err
	}
	if n.ifaceInputs == nil {
		n.ifaceInputs = make(map[*Iface]*seg6.Behaviour)
	}
	n.ifaceInputs[in] = b
	return nil
}

// BindIfaceTable routes packets arriving on in through table instead
// of the main table — the VRF binding of an L3VPN PE's CE-facing
// interface (ip route ... vrf / table semantics).
func (n *Node) BindIfaceTable(in *Iface, table int) error {
	if in == nil || in.Node != n {
		return fmt.Errorf("netsim: BindIfaceTable: interface does not belong to %s", n.Name)
	}
	if n.ifaceTables == nil {
		n.ifaceTables = make(map[*Iface]int)
	}
	n.ifaceTables[in] = table
	return nil
}

// deliver is called by the link layer when a packet arrives. It
// models the NIC ring: if the CPU is still busy and the ring is full,
// the packet is dropped — this is how offered load beyond the node's
// packet rate disappears, exactly like the paper's router receiving 3
// Mpps but forwarding 610 kpps.
func (n *Node) deliver(raw []byte, in *Iface, cross bool, ckptSeq uint64) {
	n.dirty = true
	if n.crashed {
		// The links go down with the node, so normally nothing arrives
		// here; this guards same-instant races around the crash event.
		n.Count("crash_rx_lost")
		return
	}
	if !n.rxPush(rxItem{
		raw:     raw,
		meta:    PacketMeta{RxTimestamp: n.Now(), InIface: in},
		cross:   cross,
		ckptSeq: ckptSeq,
	}) {
		n.hot.rxRingFull.Inc()
		return
	}
	if !n.busy {
		n.busy = true
		// Same event key Schedule(now, n.drain) would assign, but pure
		// data: the continuation starts the CPU loop with no pending
		// commit to apply.
		n.scheduleDrainCont(0)
	}
}

// rxPush appends to the receive ring, growing it geometrically up to
// the NIC ring size. It reports false when the ring is full. Ring
// capacity is always a power of two so push/pop index with a mask;
// occupancy is still capped at exactly Cost.RxRingPackets, which need
// not be a power of two itself.
func (n *Node) rxPush(item rxItem) bool {
	if n.rxCount >= n.Cost.RxRingPackets {
		return false
	}
	if n.rxCount == len(n.rxq) {
		newCap := 2 * len(n.rxq)
		if newCap < 64 {
			newCap = 64
		}
		buf := make([]rxItem, newCap)
		mask := len(n.rxq) - 1
		for i := 0; i < n.rxCount; i++ {
			buf[i] = n.rxq[(n.rxHead+i)&mask]
		}
		n.rxq = buf
		n.rxHead = 0
	}
	n.rxq[(n.rxHead+n.rxCount)&(len(n.rxq)-1)] = item
	n.rxCount++
	return true
}

// rxPop removes the oldest ring entry, releasing its packet bytes.
func (n *Node) rxPop() rxItem {
	item := n.rxq[n.rxHead]
	n.rxq[n.rxHead] = rxItem{}
	n.rxHead = (n.rxHead + 1) & (len(n.rxq) - 1)
	n.rxCount--
	return item
}

// drain is the CPU loop: take one packet, process it (computing its
// cost), apply its effects at completion time, continue.
func (n *Node) drain() {
	if n.rxCount == 0 {
		n.busy = false
		return
	}
	item := n.rxPop()
	if n.Sim.engine == EngineOptimistic && len(n.Sim.shards) > 1 &&
		(item.cross || item.ckptSeq != n.shard.ckptSeq) {
		// Processing mutates packet bytes in place (SRH advance, hop
		// limit). Under speculation the bytes may be shared with
		// rollback state — a checkpoint snapshot (event body or ring
		// item) when a checkpoint intervened since the buffer last
		// became private, or the cross-shard input log — so such hops
		// work on a private copy and the shared original stays
		// pristine for re-execution. A same-shard hop inside one
		// checkpoint era (the common case once the controller
		// stretches the checkpoint stride) mutates in place: nothing
		// retained can reference it.
		item.raw = append([]byte(nil), item.raw...)
	}
	// This hop's buffer is private as of the current era: either it
	// was just copied, or the stamp proved no checkpoint has seen it.
	n.pktEra = n.shard.ckptSeq

	// Burst accounting: a burst epoch covers the packets this CPU
	// processes back to back — it extends exactly while the drain
	// continuation lands at the instant processing of the previous
	// packet finished (the CPU never went idle in between). Epochs
	// gate attachment bind-skipping and nothing else (the flow and
	// route caches self-validate): costs, the event schedule and
	// every counter are identical at any burst size.
	if n.burst > 1 {
		if n.burstLeft <= 0 || n.shard.now != n.burstNextAt {
			n.burstSeq++
			n.burstLeft = n.burst
		}
		n.burstLeft--
	}

	cost := n.Cost.PacketCost(len(item.raw))
	pc := &n.pending
	*pc = pendingCommit{meta: item.meta}
	if n.obs != nil {
		n.obsBeginHop(item.raw, n.Now()-pc.meta.RxTimestamp)
	}
	cost += n.routePacket(item.raw, pc, 0)
	if n.obs != nil {
		n.obsEndHop(cost)
	}
	if n.burst > 1 {
		n.burstNextAt = n.shard.now + cost
	}

	// A crash between now and processing completion discards the
	// packet mid-flight and halts the CPU loop: the continuation
	// belongs to this incarnation only (it carries the crash epoch).
	n.scheduleDrainCont(cost)
}

// scheduleDrainCont schedules the drain continuation d ns from now:
// the event that applies the pending packet effects and pops the next
// packet. Same event key a Node.After closure would get, but pure
// data — no allocation per processed packet.
func (n *Node) scheduleDrainCont(d int64) {
	sh := n.shard
	n.dirty = true
	n.schedK++
	b := sh.events.push(sh.now+d, sh.now, n.idx, n.schedK)
	b.kind, b.epoch = evDrainCont, n.crashEpoch
}

// drainCont is the drain continuation: apply the previous packet's
// deferred effects, then continue the CPU loop. A continuation
// scheduled by a previous crash incarnation is dead.
func (n *Node) drainCont(epoch uint64) {
	if n.crashEpoch != epoch {
		return
	}
	if n.pending.op != commitNone {
		n.runCommit(&n.pending)
	}
	n.pending = pendingCommit{}
	n.drain()
}

// runCommit applies a filled pendingCommit. Payload fields are copied
// to locals and cleared before dispatch: commits can re-enter the
// routing path (handlers calling Output), which reuses the same
// storage.
func (n *Node) runCommit(pc *pendingCommit) {
	op := pc.op
	pc.op = commitNone
	switch op {
	case commitTransmit:
		raw, iface := pc.raw, pc.iface
		pc.raw, pc.iface = nil, nil
		if pc.decHop {
			packet.SetHopLimit(raw, pc.hopLimit-1)
		}
		n.pktEra = pc.era
		iface.Transmit(raw)
	case commitLocal:
		raw := pc.raw
		pc.raw = nil
		n.deliverLocal(raw, &pc.meta)
	case commitFn:
		fn := pc.fn
		pc.fn = nil
		fn()
	}
}

// Output injects a locally-generated packet into the routing path.
// Generation cost is the caller's concern (traffic generators pace
// themselves), so no CPU time is charged here.
func (n *Node) Output(raw []byte) {
	// A locally-built packet is private as of now; routing and its
	// commit run inside this event, so no checkpoint can intervene
	// before the transmit stamps the era.
	n.outputFrom(n.shard.ckptSeq, raw)
}

// outputFrom is Output for a packet whose bytes became private in an
// earlier checkpoint era — a buffer built at drain time but emitted
// from a deferred commit closure (icmpError). Stamping the buffer's
// own era keeps the copy-elision honest: if a checkpoint captured the
// pending closure, receivers must copy before mutating.
func (n *Node) outputFrom(era uint64, raw []byte) {
	if n.crashed {
		// Application timers keep firing through a crash (the process
		// schedule outlives the box in this model), but nothing leaves
		// a dead node.
		n.Count("crash_tx_lost")
		return
	}
	n.pktEra = era
	pc := &n.outPending
	*pc = pendingCommit{meta: PacketMeta{RxTimestamp: n.Now(), Local: true}}
	if n.obs != nil {
		n.obsBeginHop(raw, 0)
	}
	n.routePacket(raw, pc, 0)
	if n.obs != nil {
		n.obsEndHop(0)
	}
	if pc.op != commitNone {
		n.runCommit(pc)
	}
}

// routePacket resolves raw against the main table, writing the effect
// to apply at processing-completion time into pc and returning any
// extra cost beyond the base packet cost.
func (n *Node) routePacket(raw []byte, pc *pendingCommit, depth int) int64 {
	// Interface-bound dispatch runs before the FIB: the return leg of
	// an SR proxy and VRF table bindings key on the arrival interface.
	// Unconfigured nodes pay two nil compares.
	if depth == 0 && pc.meta.InIface != nil &&
		(n.ifaceInputs != nil || n.ifaceTables != nil) {
		if b, ok := n.ifaceInputs[pc.meta.InIface]; ok {
			return n.proxyReturn(b, raw, pc, depth)
		}
		if t, ok := n.ifaceTables[pc.meta.InIface]; ok {
			dst, err := packet.DstAddr(raw)
			if err != nil {
				n.hot.dropMalformed.Inc()
				return 0
			}
			return n.applyRoute(n.Lookup(dst, t), raw, pc, nil, depth)
		}
	}
	fe := n.flowLookup(raw)
	var r *Route
	if fe != nil {
		// Flow hit: serve the route straight from the flow entry when
		// the main table hasn't changed since it was cached — one
		// version compare instead of the route-memo probe loop.
		if t := n.mainTable(); fe.rVer == t.version {
			r = fe.r
		} else {
			r = t.Lookup(fe.dst)
			fe.r, fe.rVer = r, t.version
		}
	} else {
		// DstAddr is version-dispatching: a decapsulated IPv4 packet
		// (End.DT4/DT46) routes through the same tables.
		dst, err := packet.DstAddr(raw)
		if err != nil {
			n.hot.dropMalformed.Inc()
			return 0
		}
		r = n.lookupMain(dst)
	}
	return n.applyRoute(r, raw, pc, fe, depth)
}

// applyRoute dispatches on the route kind. fe is the packet's flow
// cache entry when routePacket had one for these exact bytes (nil
// otherwise, and always nil for rewritten packets).
func (n *Node) applyRoute(r *Route, raw []byte, pc *pendingCommit, fe *flowEntry, depth int) int64 {
	if depth > maxRouteDepth {
		n.hot.dropRouteLoop.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	if r == nil {
		n.hot.dropNoRoute.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6DstUnreachable, 0); fn != nil {
			pc.op, pc.fn = commitFn, fn
		}
		return n.Cost.ICMPGenNs
	}

	switch r.Kind {
	case RouteLocal:
		if n.spanIdx >= 0 {
			n.obsRoute("local")
			n.obsVerdict("local")
		}
		pc.op, pc.raw = commitLocal, raw
		return n.Cost.LocalDeliverNs

	case RouteForward:
		if n.spanIdx >= 0 {
			n.obsRoute("forward")
		}
		return n.forward(r, raw, pc, fe)

	case RouteSeg6Local:
		if n.spanIdx >= 0 {
			n.obsRoute("seg6local")
		}
		return n.applySeg6Local(r, raw, pc, fe, depth)

	case RouteSeg6Encap:
		if n.spanIdx >= 0 {
			n.obsRoute("seg6encap")
		}
		return n.applySeg6Encap(r, raw, pc, depth)

	case RouteLWTBPF:
		if n.spanIdx >= 0 {
			n.obsRoute("lwt_bpf")
			n.obsBehavior("LWT.BPF")
		}
		prog, ok := r.BPF.(LWTProgram)
		if !ok {
			n.Count("drop_bad_lwt_attachment")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		out, verdict, cost, err := prog.RunLWTOut(n, raw, &pc.meta)
		if err != nil {
			n.hot.dropLWTBPFError.Inc()
			if n.Trace != nil {
				n.Trace("%s: lwt bpf error: %v", n.Name, err)
			}
			if n.spanIdx >= 0 {
				n.obsVerdict("error")
			}
			return cost
		}
		if verdict == LWTDrop {
			n.hot.dropLWTBPF.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		if len(r.Nexthops) > 0 {
			// The route supplies the egress directly.
			return cost + n.forward(r, out, pc, nil)
		}
		// Otherwise the (possibly re-encapsulated) packet is routed
		// again, e.g. towards the SID the program steered it to.
		return cost + n.routePacket(out, pc, depth+1)

	default:
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
}

// forward handles hop limit, ECMP and backup-route protection,
// committing the transmission.
func (n *Node) forward(r *Route, raw []byte, pc *pendingCommit, fe *flowEntry) int64 {
	var src, dst netip.Addr
	var hopLimit uint8
	var flowLabel uint32
	if fe != nil {
		// The flow cache proved these bytes already: reuse the parsed
		// header fields without touching the packet again.
		src, dst = fe.src, fe.dst
		hopLimit, flowLabel = fe.info.HopLimit, fe.info.FlowLabel
	} else if packet.IPVersion(raw) == 4 {
		// Decapsulated IPv4 (End.DT4/DT46 towards a CE): same ECMP and
		// TTL handling, no flow label.
		hdr, err := packet.DecodeIPv4(raw)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		src, dst = hdr.Src, hdr.Dst
		hopLimit, flowLabel = hdr.TTL, 0
	} else {
		hdr, err := packet.DecodeIPv6(raw)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		src, _ = packet.IPv6Src(raw)
		dst, _ = packet.IPv6Dst(raw)
		hopLimit, flowLabel = hdr.HopLimit, hdr.FlowLabel
	}
	if !pc.meta.Local {
		if hopLimit <= 1 {
			n.hot.dropHopLimit.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
				pc.op, pc.fn = commitFn, fn
			}
			return n.Cost.ICMPGenNs
		}
	}
	nh, viaBackup := r.SelectPath(src, dst, flowLabel)
	if nh == nil || nh.Iface == nil {
		// Distinguish a failure (interfaces exist but are down, and no
		// usable backup protects the route) from a route that was
		// never forwardable (no nexthops, or none with an interface).
		configured := false
		for i := range r.Nexthops {
			if r.Nexthops[i].Iface != nil {
				configured = true
				break
			}
		}
		if configured {
			n.hot.dropLinkDown.Inc()
		} else {
			n.hot.dropNoNexthop.Inc()
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	out := raw
	var extra int64
	if viaBackup {
		n.hot.backupTx.Inc()
		if r.Backup.SRH != nil {
			if !pc.meta.Local {
				// Forwarding decrements before the tunnel ingress
				// (ip6_forward runs before the lwtunnel output), the
				// outer header copies the decremented value, and the
				// encapsulated packet leaves as local output — no second
				// decrement at transmit.
				packet.SetHopLimit(raw, hopLimit-1)
				pc.meta.Local = true
			}
			enc, err := seg6.Encap(raw, n.primary, r.Backup.SRH)
			if err != nil {
				n.Count("drop_backup_encap_error")
				if n.spanIdx >= 0 {
					n.obsVerdict("drop")
				}
				return n.Cost.EncapNs
			}
			out = enc
			extra = n.Cost.EncapNs
		}
	}
	if n.spanIdx >= 0 {
		n.obsVerdict("forward")
	}
	// The commit may run one event later (the drain continuation);
	// other events on this node (probe ticks, generator Outputs) can
	// process other packets in between and move pktEra. Capture this
	// packet's era now; runCommit reinstates it for the transmit-time
	// stamp.
	pc.op = commitTransmit
	pc.decHop = !pc.meta.Local
	pc.hopLimit = hopLimit
	pc.iface = nh.Iface
	pc.raw = out
	pc.era = n.pktEra
	return extra
}

// applySeg6Local runs a seg6local behaviour (static or End.BPF)
// through the dispatch registry and acts on its verdict.
func (n *Node) applySeg6Local(r *Route, raw []byte, pc *pendingCommit, fe *flowEntry, depth int) int64 {
	b := r.Behaviour
	if b == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	sp := seg6.Lookup(b.Action)
	if sp == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}

	var res seg6.Result
	var cost int64
	var err error

	switch {
	case sp.Prog:
		prog, ok := b.BPF.(Seg6LocalProgram)
		if !ok {
			n.Count("drop_bad_seg6local_attachment")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		res, cost, err = prog.RunSeg6Local(n, raw, &pc.meta)
		cost += n.Cost.Behaviour[seg6.ActionEnd] // the endpoint part of End.BPF
	case sp.Advancing && b.Flavors == 0 && fe != nil &&
		(b.Action != seg6.ActionEndX || b.Nexthop.IsValid()):
		// Burst fast path: the flow cache already walked these exact
		// bytes, so an unflavored advancing endpoint (End, End.X,
		// End.T) reduces to the bounds-revalidated in-place advance
		// plus the spec's verdict — no reparse, no allocation.
		if !fe.info.HasSRH() {
			err = seg6.ErrNoSRH
		} else {
			err = seg6.AdvanceAt(raw, fe.info.SRHOff)
		}
		res = seg6.Result{Verdict: sp.Verdict, Pkt: raw, Nexthop: b.Nexthop, Table: b.Table}
		cost = n.Cost.Behaviour[b.Action]
	default:
		if sp.Encapsulates && !n.tunnelHopLimit(raw, pc) {
			if n.spanIdx >= 0 {
				n.obsBehavior(sp.Name)
			}
			return n.Cost.ICMPGenNs
		}
		res, err = seg6.Apply(b, raw)
		cost = n.Cost.Behaviour[b.Action]
	}
	if n.obs != nil {
		n.obs.cells[n.shard.id].behavior[b.Action].Observe(cost)
		if n.spanIdx >= 0 {
			n.obsBehavior(sp.Name)
		}
	}
	if err != nil {
		n.hot.dropSeg6LocalError.Inc()
		if n.Trace != nil {
			n.Trace("%s: seg6local %v error: %v", n.Name, b.Action, err)
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("error")
		}
		return cost
	}
	return n.seg6Act(b, res, cost, pc, depth)
}

// tunnelHopLimit performs the forwarding-plane hop-limit step at a
// tunnel ingress for transit packets: the kernel's ip6_forward
// decrements BEFORE the lwtunnel output builds the outer header, so
// the inner hop limit is decremented here, the outer copies the
// decremented value, and the encapsulated packet continues as local
// output (no second decrement at transmit). Reports false when the
// packet's hop limit is exhausted (dropped, ICMP queued).
func (n *Node) tunnelHopLimit(raw []byte, pc *pendingCommit) bool {
	if pc.meta.Local {
		return true
	}
	hl, err := packet.HopLimit(raw)
	if err != nil {
		n.hot.dropMalformed.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return false
	}
	if hl <= 1 {
		n.hot.dropHopLimit.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		if fn := n.icmpError(raw, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
			pc.op, pc.fn = commitFn, fn
		}
		return false
	}
	packet.SetHopLimit(raw, hl-1)
	pc.meta.Local = true
	return true
}

// proxyReturn runs the inbound half of an SR proxy for a packet
// arriving on a bound interface (see BindProxyReturn).
func (n *Node) proxyReturn(b *seg6.Behaviour, raw []byte, pc *pendingCommit, depth int) int64 {
	sp := seg6.Lookup(b.Action)
	if sp == nil || sp.Inbound == nil {
		n.Count("drop_bad_proxy_return")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	res, err := sp.Inbound(b, raw)
	cost := n.Cost.Behaviour[b.Action]
	if n.obs != nil {
		n.obs.cells[n.shard.id].behavior[b.Action].Observe(cost)
		if n.spanIdx >= 0 {
			n.obsBehavior(sp.Name + "-in")
		}
	}
	if err != nil {
		n.hot.dropSeg6LocalError.Inc()
		if n.Trace != nil {
			n.Trace("%s: proxy return %v error: %v", n.Name, b.Action, err)
		}
		if n.spanIdx >= 0 {
			n.obsVerdict("error")
		}
		return cost
	}
	return n.seg6Act(b, res, cost, pc, depth)
}

// seg6Act acts on a behaviour's verdict: the shared tail of
// applySeg6Local and proxyReturn.
func (n *Node) seg6Act(b *seg6.Behaviour, res seg6.Result, cost int64, pc *pendingCommit, depth int) int64 {
	switch res.Verdict {
	case seg6.VerdictDrop:
		n.hot.dropSeg6Local.Inc()
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return cost

	case seg6.VerdictForward:
		return cost + n.routePacket(res.Pkt, pc, depth+1)

	case seg6.VerdictForwardTable:
		dst, err := packet.DstAddr(res.Pkt)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		route := n.Lookup(dst, res.Table)
		return cost + n.applyRoute(route, res.Pkt, pc, nil, depth+1)

	case seg6.VerdictForwardNexthop:
		iface := n.ResolveNexthop(res.Nexthop)
		if iface == nil {
			n.hot.dropNoNexthop.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		return cost + n.transmitVerdict(res.Pkt, iface, pc)

	case seg6.VerdictForwardOIF:
		iface, ok := b.OIF.(*Iface)
		if !ok || iface == nil || iface.Node != n {
			n.Count("drop_bad_oif")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		if !iface.Up() {
			n.hot.dropLinkDown.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		return cost + n.transmitVerdict(res.Pkt, iface, pc)

	case seg6.VerdictDeliverL2:
		if n.l2Handler == nil {
			n.Count("l2_no_handler")
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return cost
		}
		n.Count("l2_delivered")
		if n.spanIdx >= 0 {
			n.obsVerdict("local")
		}
		frame, h, meta := res.Pkt, n.l2Handler, pc.meta
		pc.op = commitFn
		pc.fn = func() { h(n, frame, &meta) }
		return cost + n.Cost.LocalDeliverNs

	default:
		n.Count("drop_bad_verdict")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return cost
	}
}

// transmitVerdict commits transmission of out on iface with the
// forwarding plane's hop-limit contract; Ethernet frames (End.DX2
// cross-connect) carry no hop limit and leave untouched.
func (n *Node) transmitVerdict(out []byte, iface *Iface, pc *pendingCommit) int64 {
	ver := packet.IPVersion(out)
	var hopLimit uint8
	decHop := false
	if ver == 4 || ver == 6 {
		hl, err := packet.HopLimit(out)
		if err != nil {
			n.hot.dropMalformed.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			return 0
		}
		if !pc.meta.Local && hl <= 1 {
			n.hot.dropHopLimit.Inc()
			if n.spanIdx >= 0 {
				n.obsVerdict("drop")
			}
			if fn := n.icmpError(out, &pc.meta, packet.ICMPv6TimeExceeded, 0); fn != nil {
				pc.op, pc.fn = commitFn, fn
			}
			return n.Cost.ICMPGenNs
		}
		hopLimit = hl
		decHop = !pc.meta.Local
	}
	if n.spanIdx >= 0 {
		n.obsVerdict("forward")
	}
	// See forward: the commit runs after interleaved events.
	pc.op = commitTransmit
	pc.decHop = decHop
	pc.hopLimit = hopLimit
	pc.iface = iface
	pc.raw = out
	pc.era = n.pktEra
	return 0
}

// applySeg6Encap performs the static transit behaviours.
func (n *Node) applySeg6Encap(r *Route, raw []byte, pc *pendingCommit, depth int) int64 {
	if r.SRH == nil {
		n.Count("drop_bad_route")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return 0
	}
	var out []byte
	var err error
	switch r.Mode {
	case EncapModeInline:
		// Inline insertion adds no outer header: the packet stays a
		// transit packet and the transmit-time decrement applies.
		out, err = seg6.InsertSRH(raw, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("T.Insert")
		}
	case EncapModeEncapRed:
		if !n.tunnelHopLimit(raw, pc) {
			return n.Cost.ICMPGenNs
		}
		out, err = seg6.EncapRed(raw, n.primary, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("H.Encaps.Red")
		}
	default:
		if !n.tunnelHopLimit(raw, pc) {
			return n.Cost.ICMPGenNs
		}
		out, err = seg6.Encap(raw, n.primary, r.SRH)
		if n.spanIdx >= 0 {
			n.obsBehavior("T.Encaps")
		}
	}
	if err != nil {
		n.Count("drop_encap_error")
		if n.spanIdx >= 0 {
			n.obsVerdict("drop")
		}
		return n.Cost.EncapNs
	}
	if len(r.Nexthops) > 0 {
		return n.Cost.EncapNs + n.forward(r, out, pc, nil)
	}
	return n.Cost.EncapNs + n.routePacket(out, pc, depth+1)
}

// ResolveNexthop finds the interface whose peer owns addr (the
// simulator's stand-in for neighbour discovery on point-to-point
// links).
func (n *Node) ResolveNexthop(addr netip.Addr) *Iface {
	for _, i := range n.ifaces {
		if i.peer != nil && i.peer.Node.IsLocal(addr) {
			return i
		}
	}
	return nil
}

// flowLookup returns the flow cache entry for these exact bytes, or
// nil when burst caching is off, the packet doesn't parse (callers
// fall back to the legacy per-field path so malformed packets route
// identically at any burst size), or on a plain miss that was just
// filled (the freshly filled entry is returned).
func (n *Node) flowLookup(raw []byte) *flowEntry {
	if n.burst <= 1 {
		return nil
	}
	for i := range n.flows {
		e := &n.flows[i]
		if len(e.hdr) > 0 && e.rawLen == len(raw) &&
			len(e.hdr) <= len(raw) && bytes.Equal(e.hdr, raw[:len(e.hdr)]) {
			return e
		}
	}
	info, err := packet.ParseInfo(raw)
	if err != nil {
		// ParseInfo is stricter than the per-field decoders (it
		// validates the SRH chain); a packet it rejects must still take
		// the exact legacy path, which may route it by destination.
		return nil
	}
	e := &n.flows[n.flowClock&1]
	n.flowClock++
	e.rawLen = len(raw)
	e.hdr = append(e.hdr[:0], raw[:info.L4Off]...)
	e.info = info
	e.src, _ = packet.IPv6Src(raw)
	e.dst, _ = packet.IPv6Dst(raw)
	e.r, e.rVer = nil, flowRouteInvalid
	return e
}

// mainTable returns the main routing table, caching the pointer so
// the per-packet path skips the tables map access. A nil result (no
// main table yet) is never cached, so a table created later is still
// picked up.
func (n *Node) mainTable() *Table {
	if n.mainTbl == nil {
		n.mainTbl = n.tables[MainTable]
	}
	return n.mainTbl
}

// lookupMain is the main-table FIB lookup, memoised per (burst epoch,
// table version, destination). SelectPath is never memoised — ECMP
// round-robin mutates per-route state.
func (n *Node) lookupMain(dst netip.Addr) *Route {
	t := n.mainTable()
	if n.burst <= 1 {
		return t.Lookup(dst)
	}
	for i := range n.routeMemo {
		e := &n.routeMemo[i]
		if e.dst == dst && e.ver == t.version && e.r != nil {
			return e.r
		}
	}
	r := t.Lookup(dst)
	e := &n.routeMemo[n.memoClock&3]
	n.memoClock++
	*e = routeMemoEntry{dst: dst, r: r, ver: t.version}
	return r
}

// ParseInfoCached is packet.ParseInfo served from the node's burst
// flow cache when the bytes were already proven this epoch.
// Attachment layers (internal/core) call it on their datapath entry.
func (n *Node) ParseInfoCached(raw []byte) (packet.Info, error) {
	if fe := n.flowLookup(raw); fe != nil {
		return fe.info, nil
	}
	return packet.ParseInfo(raw)
}

// BurstCache reports the node's current burst-cache epoch and whether
// burst caching is active. Attachment layers use it to skip re-binding
// per-packet state within one epoch; epochs advance on every new
// burst, crash and rollback restore, so a matching epoch guarantees
// nothing relevant changed since the last bind.
func (n *Node) BurstCache() (uint64, bool) { return n.burstSeq, n.burst > 1 }

// deliverLocal dispatches a packet addressed to this node. The parsed
// view handed to handlers is backed by node-owned scratch storage:
// valid only for the duration of the handler call.
func (n *Node) deliverLocal(raw []byte, meta *PacketMeta) {
	if packet.IPVersion(raw) == 4 {
		n.deliverLocal4(raw, meta)
		return
	}
	p := &n.scratchPkt
	if n.burst > 1 &&
		len(n.scratchHdr) > 0 && n.scratchRawLen == len(raw) &&
		len(n.scratchHdr) <= len(raw) && bytes.Equal(n.scratchHdr, raw[:len(n.scratchHdr)]) {
		p.Raw = raw
	} else {
		p.SRH = &n.scratchSRH
		if err := packet.ParseInto(p, raw); err != nil {
			n.scratchHdr = n.scratchHdr[:0]
			n.hot.dropMalformedLocal.Inc()
			return
		}
		if n.burst > 1 {
			n.scratchHdr = append(n.scratchHdr[:0], raw[:p.L4Off]...)
			n.scratchRawLen = len(raw)
		}
	}
	switch p.L4Proto {
	case packet.ProtoUDP:
		udp, err := packet.DecodeUDP(raw[p.L4Off:])
		if err != nil {
			n.hot.dropMalformedLocal.Inc()
			return
		}
		if h, ok := n.udpHandlers[udp.DstPort]; ok {
			n.hot.udpDelivered.Inc()
			h(n, p, meta)
			return
		}
		n.Count("udp_no_listener")
		// Port unreachable (RFC 4443 type 1 code 4) — what traceroute
		// uses to detect arrival at the destination.
		if commit := n.icmpError(raw, meta, packet.ICMPv6DstUnreachable, 4); commit != nil {
			commit()
		}
	case packet.ProtoTCP:
		if n.tcpHandler != nil {
			n.hot.tcpDelivered.Inc()
			n.tcpHandler(n, p, meta)
			return
		}
		n.Count("tcp_no_listener")
	case packet.ProtoICMPv6:
		if n.icmpHandler != nil {
			n.hot.icmpDelivered.Inc()
			n.icmpHandler(n, p, meta)
			return
		}
		n.Count("icmp_unhandled")
	default:
		n.Count("local_unknown_proto")
	}
}

// deliverLocal4 dispatches an IPv4 packet addressed to this node
// (traffic decapsulated by End.DT4/DT46 at a tenant's egress). Only
// UDP listeners are modeled; the handler sees a minimal Packet view
// (Raw, L4Proto, L4Off) — enough for sinks and port demultiplexing.
func (n *Node) deliverLocal4(raw []byte, meta *PacketMeta) {
	h, err := packet.DecodeIPv4(raw)
	if err != nil {
		n.hot.dropMalformedLocal.Inc()
		return
	}
	if h.Protocol != packet.ProtoUDP {
		n.Count("local_unknown_proto")
		return
	}
	if len(raw) < h.HdrLen {
		n.hot.dropMalformedLocal.Inc()
		return
	}
	udp, err := packet.DecodeUDP(raw[h.HdrLen:])
	if err != nil {
		n.hot.dropMalformedLocal.Inc()
		return
	}
	handler, ok := n.udpHandlers[udp.DstPort]
	if !ok {
		n.Count("udp_no_listener")
		return
	}
	n.hot.udpDelivered.Inc()
	var p packet.Packet
	p.Raw = raw
	p.L4Proto = h.Protocol
	p.L4Off = h.HdrLen
	handler(n, &p, meta)
}

// icmpError builds the commit that sends an ICMPv6 error about raw
// back to its source. Errors about ICMPv6 errors are suppressed
// (RFC 4443 §2.4) to avoid storms.
func (n *Node) icmpError(raw []byte, meta *PacketMeta, icmpType, code uint8) func() {
	if meta.Local {
		return nil // local senders learn through counters
	}
	if packet.IPVersion(raw) != 6 {
		return nil // ICMPv4 generation is not modeled
	}
	if p, err := packet.Parse(raw); err == nil && p.L4Proto == packet.ProtoICMPv6 {
		if m, err := packet.DecodeICMPv6(raw[p.L4Off:]); err == nil && m.Type < 128 {
			return nil
		}
	}
	src, err := packet.IPv6Src(raw)
	if err != nil || !n.primary.IsValid() {
		return nil
	}
	// Quote as much of the invoking packet as fits in 1232 bytes.
	quote := raw
	if len(quote) > 1232 {
		quote = quote[:1232]
	}
	body := make([]byte, 4+len(quote)) // 4 unused bytes, then the packet
	copy(body[4:], quote)
	reply, err := packet.BuildPacket(n.primary, src,
		packet.WithICMPv6(packet.ICMPv6{Type: icmpType, Code: code, Body: body}))
	if err != nil {
		return nil
	}
	n.Count(fmt.Sprintf("icmp_sent_type%d", icmpType))
	// The reply buffer is private as of now; the commit that emits it
	// may run an event later, past a checkpoint that captured this
	// closure, so the emission must carry today's era (see outputFrom).
	era := n.shard.ckptSeq
	return func() { n.outputFrom(era, reply) }
}
