// Package netsim is the discrete-event network simulator that stands
// in for the paper's physical lab (three Xeon servers with 10 Gbps
// NICs, a Turris Omnia CPE, and tc-netem-shaped links; Figure 1 of
// the paper).
//
// Everything runs in virtual time: links serialise and delay packets
// through netem qdiscs, and each node charges per-packet CPU time
// from a calibrated cost model, reproducing the receive-limited
// behaviour the paper measures (a single core pinned to the NIC
// interrupt, 610 kpps of raw IPv6 forwarding). Determinism is total:
// the same seed yields the same packet-by-packet schedule.
//
// # Sharded parallel execution
//
// By default the simulation runs on one event queue on the calling
// goroutine. Sim.SetShards(n) partitions the nodes into n shards, each
// with its own event queue, clock and counters, synchronised by one of
// two engines.
//
// The conservative engine (the default) lock-steps shards in windows
// of
//
//	lookahead = min cross-shard link delay
//
// so it never executes an event out of order — but it requires every
// cross-shard link to carry a nonzero, jitter-free delay, and it
// barriers once per lookahead. The optimistic engine
// (SetShards(n, EngineOptimistic)) speculates past the lookahead
// Time-Warp style: shards take periodic incremental checkpoints
// (dirty nodes only; cadence and speculation horizon driven by an
// adaptive controller fed with the observed rollback rate — see
// horizon.go), and when a cross-shard message arrives below a
// shard's execution frontier the shard rolls back to a checkpoint,
// re-delivers its logged inputs and reconciles the cross-shard sends
// of the undone interval (identical re-emissions are suppressed;
// disowned deliveries are annihilated with anti-messages). GVT — the
// minimum over pending events and unacked speculative sends — bounds
// checkpoint retention and rollback depth.
// Components that keep packet-driven state outside the netsim core
// register it through Node.RegisterState so rollback rewinds them
// too; delivery traces recorded from handlers use Journal.
//
// Determinism survives sharding — under both engines — because event
// ordering does not depend on a global sequence counter: every event
// is keyed by (at, schedAt, src, k) — its execution time, the virtual
// time at which it was scheduled, the index of the node that
// scheduled it, and that node's private schedule counter. The key is
// computable locally by the scheduling shard yet totally ordered
// globally, so the committed parallel schedule is the sequential
// schedule: the same seed yields identical per-node counters and
// delivery traces for any shard count and engine (locked by
// TestShardEquivalence* and the randomized TestShardEquivalenceFuzz).
//
// # Event core
//
// A shard's event queue is a binary min-heap of 32-byte, pointer-free
// keys — the ordering tuple plus a slot index — over a slab of event
// bodies (closure, or delivery/drain-continuation data) with a free
// list. Scheduling writes the body into a free slot and sifts only the
// key; executing pops the key, moves the body out and zeroes its slot
// for reuse. Bodies never move while pending, so heap maintenance
// copies 32 bytes per step with no write barriers, and the steady-state
// schedule/execute cycle allocates nothing.
package netsim

import (
	"math"
	"math/rand"

	"srv6bpf/internal/stats"
)

// eventKind discriminates the event payload. The two hot event types
// of the packet path — a link delivery and a node's drain continuation
// — are stored in data form instead of closures, so the steady-state
// schedule/execute cycle allocates nothing at all.
type eventKind uint8

const (
	// evClosure runs fn; the general-purpose event (driver schedules,
	// timers, NF callbacks).
	evClosure eventKind = iota
	// evDeliver delivers raw to peer.
	evDeliver
	// evDrainCont is a node's drain continuation: commit the pending
	// packet side effects, then pop the next packet. epoch carries the
	// node's crash epoch at scheduling time, so a continuation that
	// outlives a crash/restart cycle dies instead of draining a fresh
	// ring.
	evDrainCont
)

// evKey is one pending event's heap entry: its deterministic ordering
// key plus the slab slot holding its body. The key is 32 bytes with
// no pointers, so heap sifts move plain words — no write barriers,
// nothing for the garbage collector to scan.
//
// The (at, schedAt, src, k) tuple orders events. schedAt is the
// virtual time of the Schedule call, src the index of the scheduling
// node (-1 for driver-level schedules), and k the per-source schedule
// counter. Unlike a global sequence number, the key does not depend
// on how shards interleave, so it orders events identically whether
// the simulation runs on one heap or sixteen. The slot takes no part
// in the order.
type evKey struct {
	at      int64
	schedAt int64
	k       uint64
	src     int32
	slot    uint32
}

// before reports the deterministic execution order between events.
func (e *evKey) before(o *evKey) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.schedAt != o.schedAt {
		return e.schedAt < o.schedAt
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.k < o.k
}

// evBody is the payload of one pending event. Bodies live in the
// queue's slab and never move while their event is pending.
type evBody struct {
	// epoch is the iface fail epoch (evDeliver) or the node crash
	// epoch (evDrainCont).
	epoch uint64
	// ckptSeq is the privatisation era of raw for same-shard
	// deliveries (evDeliver with cross == false).
	ckptSeq uint64
	fn      func()
	peer    *Iface // evDeliver: receiving link end
	raw     []byte // evDeliver: packet bytes
	kind    eventKind
	cross   bool // evDeliver: crossed a shard boundary
}

// eventQueue is one shard's pending events: a hand-rolled binary
// min-heap of keys over a slab of bodies with a free list of slots.
// Producers write the body straight into its slot (push returns it),
// and sifts move a hole instead of swapping, so only keys ever move.
// A popped slot is zeroed before reuse, so the slab retains no packet
// bytes or closures of executed events.
type eventQueue struct {
	keys []evKey
	slab []evBody
	free []uint32
}

// push enqueues an event with the given key and returns its zeroed
// body (an evClosure with no fn) for the caller to fill. The pointer
// is valid until the next push.
func (q *eventQueue) push(at, schedAt int64, src int32, k uint64) *evBody {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, evBody{})
	}
	q.keys = append(q.keys, evKey{})
	q.siftUp(len(q.keys)-1, evKey{at: at, schedAt: schedAt, k: k, src: src, slot: slot})
	return &q.slab[slot]
}

// pushCross enqueues the delivery of a cross-shard message. The
// packet bytes are shared with the optimistic engine's input log, so
// the receiver must treat them as immutable. A failure between
// transmission and delivery cuts the wire under the packet: it is
// lost even if the link has since been restored. Both ends' epochs
// advance at the same virtual instants, so the receiving end's epoch
// stands in for the sender's, keeping the delivery inside its own
// shard's state.
func (q *eventQueue) pushCross(m *xmsg) {
	b := q.push(m.at, m.schedAt, m.src, m.k)
	b.kind, b.peer, b.epoch, b.raw, b.cross = evDeliver, m.peer, m.epoch, m.raw, true
}

// nextAt returns the earliest pending event time, or MaxInt64 when
// the queue is empty.
func (q *eventQueue) nextAt() int64 {
	if len(q.keys) == 0 {
		return math.MaxInt64
	}
	return q.keys[0].at
}

// pop removes the earliest event and returns its key and body, freeing
// the slot.
func (q *eventQueue) pop() (evKey, evBody) {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top, q.release(top.slot)
}

// release returns a slot's body and frees the slot, zeroed. The
// fields are cleared one by one: a whole-struct zero compiles to a
// bulk write barrier while the collector is marking.
func (q *eventQueue) release(slot uint32) evBody {
	p := &q.slab[slot]
	b := *p
	p.fn, p.peer, p.raw = nil, nil, nil
	p.epoch, p.ckptSeq, p.kind, p.cross = 0, 0, evClosure, false
	q.free = append(q.free, slot)
	return b
}

// siftUp places key at hole i or above it.
func (q *eventQueue) siftUp(i int, key evKey) {
	h := q.keys
	for i > 0 {
		p := (i - 1) / 2
		if !key.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
}

// siftDown places key at hole i or below it.
func (q *eventQueue) siftDown(i int, key evKey) {
	h := q.keys
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = key
}

// exec dispatches one popped event; src is the key's scheduling node.
func (s *Sim) exec(src int32, e *evBody) {
	switch e.kind {
	case evDeliver:
		peer := e.peer
		// The event key's src is the sender; the state it mutates
		// belongs to the receiving end, so mark that node dirty
		// explicitly for the incremental checkpoints.
		peer.Node.dirty = true
		if peer.failEpoch != e.epoch {
			peer.inFlightKills++
			return
		}
		peer.Node.deliver(e.raw, peer, e.cross, e.ckptSeq)
	case evDrainCont:
		s.nodes[src].drainCont(e.epoch)
	default:
		e.fn()
	}
}

// Sim is the simulation kernel: a virtual clock, one event queue per
// shard (one shard unless SetShards is called) and a seeded random
// source. Stochastic per-node components (netem jitter, loss, BPF
// get_prandom) draw from per-node streams split from the same seed,
// so their draws are independent of shard count and node interleave.
type Sim struct {
	seed int64
	rng  *rand.Rand

	// shards always holds at least one shard; len(shards) == 1 is the
	// sequential mode every existing scenario runs in.
	shards    []*shard
	lookahead int64
	// cutLinks is the cross-shard link count of the current partition
	// (each unordered pair once), set by SetShardsPartitioned.
	cutLinks int

	// engine selects the parallel synchronisation protocol set by
	// SetShards; irrelevant while len(shards) == 1.
	engine Engine
	// horizon is the optimistic speculation window; horizonReq
	// remembers an explicit SetHorizon across SetShards calls.
	horizon    int64
	horizonReq int64

	// Optimistic-engine bookkeeping, touched only by the quiescent
	// coordinator (barriers and trims are single-threaded).
	round     uint64
	rollbacks uint64
	antiMsgs  uint64
	gvt       int64
	pending   []pendingMsg
	antiq     []sentRec
	// onBarrier, when set (tests), observes GVT after each barrier's
	// repair fixpoint.
	onBarrier func(gvt int64)

	// now is the committed global clock: in sequential mode it tracks
	// the executing event, in sharded mode the last barrier. Inside
	// events use Node.Now(), which is exact in both modes.
	now int64

	// simK numbers driver-level Schedule calls (src = -1).
	simK uint64

	// running is true while shard workers execute a window; guards
	// against driver-level mutations from inside parallel events.
	running bool

	// Engine accounting: one cell per shard, merged deterministically
	// by EngineStats.
	engEvents      stats.Sharded
	engMsgs        stats.Sharded
	engWindows     stats.Sharded
	engCkpts       stats.Sharded
	engCkptCopied  stats.Sharded
	engCkptAliased stats.Sharded
	engCkptBytes   stats.Sharded

	// hc is the adaptive horizon controller driving s.horizon from the
	// observed rollback rate; nil when a SetHorizon override is active
	// or the engine is conservative. hcMsgsSeen is the cross-shard
	// message total already fed to it.
	hc         *horizonCtl
	hcMsgsSeen uint64

	// obs is the observability plane attached by EnableObs; nil (the
	// default) keeps every hook to a single pointer compare.
	obs *simObs

	// burst is the packet-burst knob set by SetBurst: the maximum
	// number of back-to-back packets a node's drain loop treats as one
	// batch for cache purposes. It never changes the event schedule —
	// each drain still charges and commits exactly one packet — so any
	// burst value is bit-identical to burst == 1.
	burst int

	nodes []*Node
}

// driverSrc keys events scheduled from outside any node (test
// drivers, experiment harnesses). They sort before node events with
// the same (at, schedAt).
const driverSrc int32 = -1

// New creates a simulation with the given random seed.
func New(seed int64) *Sim {
	s := &Sim{seed: seed, rng: rand.New(rand.NewSource(seed)), burst: 1}
	s.shards = []*shard{newShard(s, 0)}
	s.shards[0].out = make([][]xmsg, 1)
	s.lookahead = math.MaxInt64 / 2
	s.engEvents = *stats.NewSharded(1)
	s.engMsgs = *stats.NewSharded(1)
	s.engWindows = *stats.NewSharded(1)
	s.engCkpts = *stats.NewSharded(1)
	s.engCkptCopied = *stats.NewSharded(1)
	s.engCkptAliased = *stats.NewSharded(1)
	s.engCkptBytes = *stats.NewSharded(1)
	return s
}

// Seed returns the seed the simulation was created with.
func (s *Sim) Seed() int64 { return s.seed }

// SetBurst sets the packet-burst size b (clamped to >= 1): how many
// back-to-back packets a node may process as one batch, amortising
// FIB lookups, header parsing and attachment binding across the
// burst. Burst processing is purely a caching regime — the event
// schedule, every counter and every delivery is bit-identical to
// per-packet processing (b == 1, the default) under all engines; the
// equivalence fuzzer locks this with a randomized burst arm.
func (s *Sim) SetBurst(b int) {
	if b < 1 {
		b = 1
	}
	s.burst = b
	for _, n := range s.nodes {
		n.burst = b
	}
}

// Burst returns the current packet-burst size.
func (s *Sim) Burst() int { return s.burst }

// Now returns the current virtual time in nanoseconds. In sharded
// mode this is the last committed barrier; code running inside an
// event should use Node.Now() for the executing shard's exact clock.
func (s *Sim) Now() int64 {
	if len(s.shards) == 1 {
		return s.shards[0].now
	}
	return s.now
}

// Rand returns the simulation's driver-level random source. It is
// not used by any per-packet path (those draw from Node.Rand()
// streams); use it only from driver code, never from inside events
// of a sharded run.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn at absolute virtual time at (clamped to now).
//
// Calls from driver code (between Run/RunUntil calls) land on shard
// 0; from inside an event of a sequential run they land on the only
// shard. In a sharded run, events must be scheduled through the node
// that owns the state they touch — Node.Schedule / Node.After — so
// the engine can route them to the owning shard; a raw Sim.Schedule
// from inside a parallel window panics.
func (s *Sim) Schedule(at int64, fn func()) {
	if s.running {
		panic("netsim: Sim.Schedule from inside a sharded run; use Node.Schedule/Node.After")
	}
	sh := s.shards[0]
	now := s.Now()
	if at < now {
		at = now
	}
	s.simK++
	sh.events.push(at, now, driverSrc, s.simK).fn = fn
}

// After runs fn d nanoseconds from now.
func (s *Sim) After(d int64, fn func()) { s.Schedule(s.Now()+d, fn) }

// Step executes the next event in deterministic order; it reports
// false when none remain. In sharded mode Step runs the engine
// sequentially (one event at a time, messages flushed immediately);
// Run and RunUntil are the parallel paths.
func (s *Sim) Step() bool {
	if len(s.shards) == 1 {
		sh := s.shards[0]
		if len(sh.events.keys) == 0 {
			return false
		}
		k, e := sh.events.pop()
		sh.now = k.at
		if k.at >= sh.execTo {
			sh.execTo = k.at + 1
		}
		s.engEvents.Inc(0)
		s.exec(k.src, &e)
		return true
	}
	best := -1
	for i, sh := range s.shards {
		if len(sh.events.keys) == 0 {
			continue
		}
		if best < 0 || sh.events.keys[0].before(&s.shards[best].events.keys[0]) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	sh := s.shards[best]
	k, e := sh.events.pop()
	sh.now = k.at
	if k.at >= sh.execTo {
		sh.execTo = k.at + 1
	}
	s.engEvents.Inc(sh.id)
	s.exec(k.src, &e)
	s.flushOutboxes()
	if k.at > s.now {
		s.now = k.at
	}
	return true
}

// Run executes events until every queue drains.
func (s *Sim) Run() {
	if len(s.shards) == 1 {
		for s.Step() {
		}
		return
	}
	if s.engine == EngineOptimistic {
		s.runOptimistic(math.MaxInt64)
	} else {
		s.runWindows(math.MaxInt64)
	}
	s.syncClocks(s.maxShardNow())
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.
func (s *Sim) RunUntil(t int64) {
	if len(s.shards) == 1 {
		sh := s.shards[0]
		for len(sh.events.keys) > 0 && sh.events.keys[0].at <= t {
			s.Step()
		}
		if sh.now < t {
			sh.now = t
		}
		return
	}
	if s.engine == EngineOptimistic {
		s.runOptimistic(t)
	} else {
		s.runWindows(t)
	}
	s.syncClocks(t)
}

// Nodes returns all nodes added to the simulation.
func (s *Sim) Nodes() []*Node { return s.nodes }

// FailLink schedules a link failure at absolute virtual time at: both
// ends of i's link go down and packets on the wire are lost (see
// Iface.Fail). Each end flips in its own shard, at the same virtual
// instant, so the call is safe for links that cross shards.
func (s *Sim) FailLink(at int64, i *Iface) { s.scheduleLinkState(at, i, false) }

// RestoreLink schedules the link coming back up at absolute virtual
// time at.
func (s *Sim) RestoreLink(at int64, i *Iface) { s.scheduleLinkState(at, i, true) }

// scheduleLinkState schedules one flip event per link end, each on
// the shard owning that end. The invoked end is scheduled first, so
// its OnStateChange fires first when both ends share a shard —
// preserving the sequential callback order.
func (s *Sim) scheduleLinkState(at int64, i *Iface, up bool) {
	if s.running {
		panic("netsim: FailLink/RestoreLink from inside a sharded run")
	}
	now := s.Now()
	if at < now {
		at = now
	}
	for _, end := range [2]*Iface{i, i.peer} {
		if end == nil {
			continue
		}
		end := end
		s.simK++
		end.Node.shard.events.push(at, now, driverSrc, s.simK).fn = func() { end.setOneEnd(up) }
	}
}

// CrashNode schedules a node crash at absolute virtual time at: the
// node's CPU halts, its receive ring is lost, every attached link
// goes down (both ends, packets on the wire included) and registered
// CrashResettable NF state is reset — counters survive. Like
// FailLink, each affected link end flips in its own shard at the same
// virtual instant, so the call is safe under any engine.
func (s *Sim) CrashNode(at int64, n *Node) { s.scheduleNodeState(at, n, false) }

// RestartNode schedules a crashed node coming back at absolute
// virtual time at: links re-establish and the node resumes with an
// empty receive ring and freshly-reset NF state.
func (s *Sim) RestartNode(at int64, n *Node) { s.scheduleNodeState(at, n, true) }

// scheduleNodeState schedules the crash/restart event on the node's
// shard plus one link-state flip per peer end on the shard owning it.
// The node's own ends flip inside crashNow/restartNow, so their
// OnStateChange callbacks observe the node's post-transition state.
func (s *Sim) scheduleNodeState(at int64, n *Node, up bool) {
	if s.running {
		panic("netsim: CrashNode/RestartNode from inside a sharded run")
	}
	now := s.Now()
	if at < now {
		at = now
	}
	s.simK++
	n.shard.events.push(at, now, driverSrc, s.simK).fn = func() {
		if up {
			n.restartNow()
		} else {
			n.crashNow()
		}
	}
	for _, ifc := range n.ifaces {
		peer := ifc.peer
		if peer == nil {
			continue
		}
		s.simK++
		peer.Node.shard.events.push(at, now, driverSrc, s.simK).fn = func() { peer.setOneEnd(up) }
	}
}

// Millisecond and friends make topology code readable.
const (
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)
