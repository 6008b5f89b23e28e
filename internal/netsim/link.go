package netsim

import (
	"fmt"
	"math/rand"

	"srv6bpf/internal/netem"
)

// Iface is one end of a point-to-point link.
type Iface struct {
	Name string
	Node *Node
	peer *Iface
	q    *netem.Qdisc

	// down marks the link as failed. Both ends of a link fail and
	// recover together (a cut cable, not an administrative shutdown of
	// one side); in a sharded run each end flips in its own shard at
	// the same virtual instant.
	down bool
	// failEpoch counts failures seen by this link end. A packet
	// records the sender end's epoch at transmission; the delivery
	// event compares it against the receiving end's epoch — the two
	// ends advance in virtual lockstep, so a mismatch means the wire
	// was cut under the packet, even if the link was restored in
	// between. Checking the receiving end keeps the delivery event
	// inside its own shard's state.
	failEpoch uint64

	// Tap, when set, observes every packet accepted for transmission
	// (tests and tcpdump-style tracing). It runs on the transmitting
	// node's shard.
	Tap func(raw []byte)

	// OnStateChange, when set, is invoked whenever the link state
	// flips (after the flip; up reports the new state). Both ends'
	// callbacks fire, each on its own node's shard.
	OnStateChange func(i *Iface, up bool)

	TxPackets uint64
	TxBytes   uint64
	TxDrops   uint64
	// downTxDrops counts transmissions attempted while this end was
	// down (also counted in TxDrops). Owned by the transmitting
	// node's shard.
	downTxDrops uint64
	// inFlightKills counts packets that died on the wire towards this
	// end: the peer transmitted them, then a failure cut the link
	// before delivery. The receiving shard detects the loss, so the
	// counter lives on the receiving end — each shard mutates only
	// its own state (no atomics) and optimistic rollback restores it
	// with this end's node. DownDrops sums both views.
	inFlightKills uint64
}

// Peer returns the interface at the other end.
func (i *Iface) Peer() *Iface { return i.peer }

// DownDrops reports packets lost to link failure on this transmitting
// end: transmissions attempted while down plus packets that were in
// flight towards the peer when the link went down (already counted in
// TxPackets — they left this end but never arrived). Read it only
// while the sim is quiescent.
func (i *Iface) DownDrops() uint64 {
	d := i.downTxDrops
	if i.peer != nil {
		d += i.peer.inFlightKills
	}
	return d
}

// Qdisc exposes the shaping discipline (the TWD daemon adjusts
// ExtraDelayNs through it). The qdisc belongs to the transmitting
// node: adjust it only from that node's shard (or while quiescent).
func (i *Iface) Qdisc() *netem.Qdisc { return i.q }

// Up reports whether the link is up.
func (i *Iface) Up() bool { return !i.down }

// Fail takes the link down: both ends flip, every packet currently on
// the wire (in either direction) is lost, and further transmissions
// drop until Restore. Failing an already-down link is a no-op.
//
// Fail flips both ends synchronously, so during a sharded run it may
// only be called for links whose two ends share a shard (or from
// quiescent driver code); use Sim.FailLink to cut a cross-shard link
// at a scheduled instant.
func (i *Iface) Fail() { i.setLinkState(false) }

// Restore brings the link back up. Packets that were in flight during
// the outage stay lost; new transmissions flow again.
func (i *Iface) Restore() { i.setLinkState(true) }

// setLinkState flips both ends of the link.
func (i *Iface) setLinkState(up bool) {
	if s := i.Node.Sim; s.running && i.peer != nil && i.peer.Node.shard != i.Node.shard {
		panic("netsim: Iface.Fail/Restore on a cross-shard link inside a parallel run; use Sim.FailLink/RestoreLink")
	}
	for _, end := range [2]*Iface{i, i.peer} {
		if end != nil {
			end.setOneEnd(up)
		}
	}
}

// setOneEnd flips one end of the link: the per-shard half of a
// failure or restore. No-op when the end is already in the target
// state.
func (i *Iface) setOneEnd(up bool) {
	if i.down == !up {
		return
	}
	i.Node.dirty = true
	i.down = !up
	if !up {
		i.failEpoch++
		i.Node.Count("link_down")
	} else {
		i.Node.Count("link_up")
	}
	if i.OnStateChange != nil {
		i.OnStateChange(i, up)
	}
}

// xmsg is a cross-shard packet delivery in data form: everything
// needed to enqueue the delivery at the destination. Keeping
// cross-shard messages as data rather than closures lets the
// optimistic engine compare a rolled-back shard's re-emissions
// against the originals (lazy cancellation) — identical re-sends
// leave the receiver untouched instead of churning anti-messages.
type xmsg struct {
	at, schedAt int64
	src         int32
	k           uint64
	peer        *Iface // receiving link end
	epoch       uint64 // sender's fail epoch at transmission
	raw         []byte
}

func (m *xmsg) key() msgKey { return msgKey{m.at, m.schedAt, m.src, m.k} }

// same reports behavioural identity: delivering either message has
// exactly the same effect.
func (m *xmsg) same(o *xmsg) bool {
	return m.at == o.at && m.schedAt == o.schedAt && m.src == o.src && m.k == o.k &&
		m.peer == o.peer && m.epoch == o.epoch && string(m.raw) == string(o.raw)
}

// Transmit serialises raw onto the link; the peer node receives it
// after serialisation and delay. Drops (queue overflow, loss, link
// down) are counted on the interface. Transmit runs on the sending
// node's shard; the delivery event is routed to the shard owning the
// peer, carrying the deterministic key the sequential schedule would
// have assigned it.
func (i *Iface) Transmit(raw []byte) {
	if i.down {
		i.TxDrops++
		i.downTxDrops++
		return
	}
	n := i.Node
	now := n.Now()
	deliverAt, ok := i.q.Admit(now, len(raw), n.rng)
	if !ok {
		i.TxDrops++
		return
	}
	i.TxPackets++
	i.TxBytes += uint64(len(raw))
	if i.Tap != nil {
		// The tap sees the packet as transmitted; wire-level corruption
		// below happens after the sender's tcpdump point.
		i.Tap(raw)
	}
	// Chaos-layer impairments. All draws come from the transmitting
	// node's stream in a fixed order (corrupt, then duplicate) and only
	// when the knob is set, so impairment-free runs consume an
	// identical random stream with or without the chaos layer.
	era := n.pktEra
	if i.q.DrawCorrupt(n.rng) {
		// Damage a private copy: the original bytes may be shared with
		// checkpoint state or a pending commit closure. The copy is
		// private as of now, so it carries the current era stamp.
		raw = corruptCopy(raw, n.rng)
		era = n.shard.ckptSeq
		n.Count("tx_corrupted")
	}
	dup := i.q.DrawDuplicate(n.rng)
	i.send(raw, deliverAt, now, era)
	if dup {
		// tc-netem duplication: the copy is re-admitted as if enqueued
		// a second time, serialising and jittering independently. It
		// owns fresh bytes — receivers mutate packets in place, so two
		// deliveries must never share a buffer.
		if dupAt, ok := i.q.Admit(now, len(raw), n.rng); ok {
			n.Count("tx_duplicated")
			i.send(append([]byte(nil), raw...), dupAt, now, n.shard.ckptSeq)
		} else {
			i.TxDrops++
		}
	}
}

// send routes one admitted packet delivery to the peer, carrying the
// deterministic event key and the era in which the buffer last became
// private (see Transmit for why the era matters under speculation).
// The delivery is pure data (evDeliver) — no closure allocation on the
// packet hot path.
func (i *Iface) send(raw []byte, deliverAt, now int64, era uint64) {
	n := i.Node
	n.schedK++
	if i.peer.Node.shard == n.shard {
		// Stamp the era in which this packet's buffer last became
		// private (set at drain/Output), NOT the current one: a
		// checkpoint taken while the packet waited in the pending
		// commit has captured the buffer, and the older stamp is what
		// forces the receiving drain to copy before mutating it.
		b := n.shard.events.push(deliverAt, now, n.idx, n.schedK)
		b.kind, b.peer, b.epoch, b.raw, b.ckptSeq = evDeliver, i.peer, i.failEpoch, raw, era
		return
	}
	m := xmsg{
		at: deliverAt, schedAt: now, src: n.idx, k: n.schedK,
		peer: i.peer, epoch: i.failEpoch, raw: raw,
	}
	if n.Sim.engine == EngineOptimistic {
		// The message must own its bytes: if this delivery survives a
		// sender rollback (lazy cancellation), the sender's
		// re-execution re-writes its own buffer concurrently with the
		// receiver reading the delivered packet.
		m.raw = append([]byte(nil), raw...)
	}
	n.shard.sendCross(m)
}

// corruptCopy returns a copy of raw with a burst of flipped bits at a
// random offset — tc-netem "corrupt" introduces a single-bit error;
// we flip one random bit in one random byte, which is enough to break
// any header field it lands on.
func corruptCopy(raw []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), raw...)
	if len(out) == 0 {
		return out
	}
	pos := rng.Intn(len(out))
	bit := byte(1) << uint(rng.Intn(8))
	out[pos] ^= bit
	return out
}

func (i *Iface) String() string {
	return fmt.Sprintf("%s/%s", i.Node.Name, i.Name)
}

// Connect joins two nodes with a bidirectional link; each direction
// gets its own qdisc built from its config. It returns a's and b's
// interfaces.
func Connect(a, b *Node, ab, ba netem.Config) (*Iface, *Iface) {
	ia := &Iface{
		Name: fmt.Sprintf("eth%d", len(a.ifaces)),
		Node: a,
		q:    netem.New(ab),
	}
	ib := &Iface{
		Name: fmt.Sprintf("eth%d", len(b.ifaces)),
		Node: b,
		q:    netem.New(ba),
	}
	ia.peer, ib.peer = ib, ia
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	return ia, ib
}

// ConnectSymmetric joins two nodes with the same shaping in both
// directions.
func ConnectSymmetric(a, b *Node, cfg netem.Config) (*Iface, *Iface) {
	return Connect(a, b, cfg, cfg)
}
