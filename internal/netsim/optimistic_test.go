package netsim

// White-box tests of the Time-Warp machinery: checkpoint/restore
// round-trips, anti-message annihilation, GVT bounds and forced
// straggler recovery. The black-box acceptance surface (bit-identical
// equivalence against sequential execution on full topologies) lives
// in equivalence_test.go and fuzz_equiv_test.go.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// optimisticPair builds A --- B with the link config, a default route
// each way, and a 2-shard optimistic split.
func optimisticPair(t *testing.T, cfg netem.Config) (*Sim, *Node, *Node, *Iface) {
	t.Helper()
	s := New(1)
	a, b, aIf := twoHosts(s, cfg)
	if err := s.SetShards(2, EngineOptimistic); err != nil {
		t.Fatal(err)
	}
	return s, a, b, aIf
}

// pingPong wires a request/reply exchange recorded in rollback-aware
// counters: every packet B receives is answered immediately, so
// cross-shard traffic flows both ways inside every window.
func pingPong(t *testing.T, a, b *Node, rounds int, gap int64) {
	t.Helper()
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
		reply, err := packet.BuildPacket(bAddr, aAddr, packet.WithUDP(7, 8), packet.WithPayload([]byte("pong")))
		if err != nil {
			panic(err)
		}
		n.Output(reply)
	})
	a.HandleUDP(8, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
	for i := 0; i < rounds; i++ {
		at := int64(i) * gap
		a.Schedule(at, func() { a.Output(udpTo(t, bAddr, 7, "ping")) })
	}
}

// keepBusy gives a node dense local work (a self-rescheduling timer
// chain), so its shard's execution frontier races deep into every
// speculation window — the adversarial condition that turns
// cross-shard arrivals into stragglers.
func keepBusy(n *Node, period, until int64) {
	busy := n.CounterHandle("busy_ticks")
	var tick func()
	tick = func() {
		busy.Inc()
		if n.Now() < until {
			n.After(period, tick)
		}
	}
	n.Schedule(0, tick)
}

// TestCheckpointRestoreRoundTrip locks the snapshot surface: node,
// qdisc, FIB cursor, counter and RNG state must restore exactly, and
// the snapshot must survive further mutation untouched.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	s := New(1)
	a, b, aIf := twoHosts(s, netem.Config{RateBps: 1e8, DelayNs: Millisecond, JitterNs: 50 * Microsecond, Loss: 0.05})
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
	// Exercise every snapshotted subsystem: traffic (counters, qdisc
	// serialiser state, RNG draws for loss/jitter), a failure epoch,
	// and a round-robin route cursor.
	a.AddRoute(&Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, PerPacketRR: true,
		Nexthops: []Nexthop{{Iface: aIf}, {Iface: aIf}}})
	for i := 0; i < 20; i++ {
		a.Output(udpTo(t, bAddr, 7, "x"))
	}
	s.RunUntil(2 * Millisecond)
	aIf.Fail()
	aIf.Restore()

	snapA, snapB := a.snapshot(), b.snapshot()

	// Mutate everything.
	for i := 0; i < 30; i++ {
		a.Output(udpTo(t, bAddr, 7, "y"))
	}
	s.RunUntil(5 * Millisecond)
	aIf.Fail()
	a.Count("scratch_counter")
	a.rng.Float64()

	a.restore(snapA)
	b.restore(snapB)
	againA, againB := a.snapshot(), b.snapshot()
	if !reflect.DeepEqual(snapA, againA) {
		t.Errorf("node A state did not round-trip:\n  want %+v\n  got  %+v", snapA, againA)
	}
	if !reflect.DeepEqual(snapB, againB) {
		t.Errorf("node B state did not round-trip:\n  want %+v\n  got  %+v", snapB, againB)
	}
	if _, ok := a.counters["scratch_counter"]; ok {
		t.Error("counter interned during speculation survived the restore")
	}
}

// TestRNGSnapshotRestore: restoring the single-word splitmix state
// replays the exact draw sequence.
func TestRNGSnapshotRestore(t *testing.T) {
	s := New(42)
	n := s.AddNode("rng", HostCostModel())
	n.rng.Float64()
	n.rng.NormFloat64()
	state := n.rngSrc.state
	want := []float64{n.rng.Float64(), n.rng.NormFloat64(), float64(n.rng.Uint32())}
	n.rngSrc.state = state
	got := []float64{n.rng.Float64(), n.rng.NormFloat64(), float64(n.rng.Uint32())}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("draws after restore differ: %v vs %v", want, got)
	}
}

// TestJournalRollback: journal appends rewind with RestoreState and
// the registration snapshot unwinds appends made before registration
// was rolled past.
func TestJournalRollback(t *testing.T) {
	s := New(1)
	n := s.AddNode("j", HostCostModel())
	j := NewJournal(n)
	j.Add("committed")
	mark := j.SnapshotState()
	j.Add("speculative-1")
	j.Addf("speculative-%d", 2)
	j.RestoreState(mark)
	if got := j.Lines(); len(got) != 1 || got[0] != "committed" {
		t.Fatalf("journal after rollback = %v", got)
	}
}

// TestHeapRemoveKey is a seeded model test of the event queue against
// a sorted-slice reference: randomly interleaved push, pop, removeKey
// (on the live queue and on a checkpoint, as annihilation does),
// checkpoint clone and restore. Pops must come out in full
// (at, schedAt, src, k) order; each body must stay with its key while
// slots are freed and reused; and every free slot — and every slab
// entry past the live length — must be zero, so the queue retains no
// packet bytes or closures of events it no longer holds.
func TestHeapRemoveKey(t *testing.T) {
	type refEv struct {
		key msgKey
		id  uint64
	}
	less := func(a, b msgKey) bool {
		switch {
		case a.at != b.at:
			return a.at < b.at
		case a.schedAt != b.schedAt:
			return a.schedAt < b.schedAt
		case a.src != b.src:
			return a.src < b.src
		}
		return a.k < b.k
	}
	idBytes := func(id uint64) []byte { return []byte(fmt.Sprintf("pkt-%d", id)) }
	zero := func(b *evBody) bool {
		return b.epoch == 0 && b.ckptSeq == 0 && b.fn == nil && b.peer == nil &&
			b.raw == nil && b.kind == evClosure && !b.cross
	}
	check := func(step int, what string, q *eventQueue, ref []refEv) {
		t.Helper()
		if len(q.keys) != len(ref) {
			t.Fatalf("step %d %s: %d keys, reference holds %d", step, what, len(q.keys), len(ref))
		}
		for i := 1; i < len(q.keys); i++ {
			if q.keys[i].before(&q.keys[(i-1)/2]) {
				t.Fatalf("step %d %s: heap order violated at %d", step, what, i)
			}
		}
		ids := make(map[msgKey]uint64, len(ref))
		for _, r := range ref {
			ids[r.key] = r.id
		}
		used := make([]bool, len(q.slab))
		for _, k := range q.keys {
			if used[k.slot] {
				t.Fatalf("step %d %s: slot %d held twice", step, what, k.slot)
			}
			used[k.slot] = true
			b := &q.slab[k.slot]
			id, ok := ids[msgKey{k.at, k.schedAt, k.src, k.k}]
			if !ok || b.epoch != id || string(b.raw) != string(idBytes(id)) {
				t.Fatalf("step %d %s: key %+v carries body %d/%q, want %d", step, what, k, b.epoch, b.raw, id)
			}
		}
		for _, f := range q.free {
			if used[f] {
				t.Fatalf("step %d %s: slot %d both free and held", step, what, f)
			}
			used[f] = true
			if !zero(&q.slab[f]) {
				t.Fatalf("step %d %s: free slot %d retains %+v", step, what, f, q.slab[f])
			}
		}
		for i, u := range used {
			if !u {
				t.Fatalf("step %d %s: slot %d neither free nor held", step, what, i)
			}
		}
		for i, b := range q.slab[len(q.slab):cap(q.slab)] {
			if !zero(&b) {
				t.Fatalf("step %d %s: slab tail entry %d retains %+v", step, what, len(q.slab)+i, b)
			}
		}
	}
	minRef := func(ref []refEv) int {
		m := 0
		for i := range ref {
			if less(ref[i].key, ref[m].key) {
				m = i
			}
		}
		return m
	}
	remove := func(ref []refEv, i int) []refEv { return append(ref[:i:i], ref[i+1:]...) }

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []refEv
		var ckpt *eventQueue
		var ckptRef []refEv
		nextID := uint64(1)
		noop := func() {}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 9: // push
				id := nextID
				nextID++
				// Narrow ranges force ties on at, schedAt and src.
				key := msgKey{at: rng.Int63n(40), schedAt: rng.Int63n(8), src: int32(rng.Intn(4)) - 1, k: id}
				b := q.push(key.at, key.schedAt, key.src, key.k)
				b.epoch, b.raw = id, idBytes(id)
				if id%3 == 0 {
					b.fn = noop
				} else {
					b.kind, b.peer, b.ckptSeq, b.cross = evDeliver, &Iface{}, id, id%2 == 0
				}
				ref = append(ref, refEv{key, id})
			case op < 14: // pop
				if len(ref) == 0 {
					continue
				}
				m := minRef(ref)
				want := ref[m]
				ref = remove(ref, m)
				k, b := q.pop()
				if got := (msgKey{k.at, k.schedAt, k.src, k.k}); got != want.key {
					t.Fatalf("seed %d step %d: popped %+v, want %+v", seed, step, got, want.key)
				}
				if b.epoch != want.id || string(b.raw) != string(idBytes(want.id)) {
					t.Fatalf("seed %d step %d: key of %d popped body %d/%q", seed, step, want.id, b.epoch, b.raw)
				}
			case op < 16: // removeKey: present, or never pushed
				if len(ref) == 0 || rng.Intn(4) == 0 {
					if q.removeKey(msgKey{at: 0, schedAt: 0, src: 9, k: 0}) {
						t.Fatalf("seed %d step %d: removed a key that was never pushed", seed, step)
					}
					continue
				}
				i := rng.Intn(len(ref))
				if !q.removeKey(ref[i].key) {
					t.Fatalf("seed %d step %d: key %+v not found", seed, step, ref[i].key)
				}
				ref = remove(ref, i)
			case op < 17: // checkpoint
				c := q.clone()
				ckpt, ckptRef = &c, append([]refEv(nil), ref...)
			case op < 18: // annihilate inside the checkpoint
				if ckpt == nil || len(ckptRef) == 0 {
					continue
				}
				i := rng.Intn(len(ckptRef))
				if !ckpt.removeKey(ckptRef[i].key) {
					t.Fatalf("seed %d step %d: checkpoint key %+v not found", seed, step, ckptRef[i].key)
				}
				ckptRef = remove(ckptRef, i)
			default: // restore (the checkpoint stays reusable)
				if ckpt == nil {
					continue
				}
				q.restore(ckpt)
				ref = append(ref[:0:0], ckptRef...)
			}
			check(step, fmt.Sprintf("seed %d live", seed), &q, ref)
			if ckpt != nil {
				check(step, fmt.Sprintf("seed %d checkpoint", seed), ckpt, ckptRef)
			}
		}
	}
}

// TestForcedStragglerRecovery drives a zero-delay cross-shard
// request/reply workload — every window ends with messages below the
// peer's frontier, an adversarial schedule for speculation — and
// requires (a) rollbacks actually happened and (b) the committed
// state is bit-identical to the sequential run.
func TestForcedStragglerRecovery(t *testing.T) {
	run := func(shards int) (string, EngineStats) {
		s := New(1)
		a, b, _ := twoHosts(s, netem.Config{RateBps: 1e10}) // zero propagation delay
		if shards > 1 {
			if err := s.SetShards(shards, EngineOptimistic); err != nil {
				t.Fatal(err)
			}
		}
		pingPong(t, a, b, 50, 3*Microsecond)
		// Dense local work on B: its frontier races ahead of A's
		// zero-delay arrivals every window.
		keepBusy(b, Microsecond, 200*Microsecond)
		s.Run()
		fp := fmt.Sprintf("aC=%v bC=%v", a.Counters(), b.Counters())
		return fp, s.EngineStats()
	}
	seq, _ := run(1)
	par, st := run(2)
	if par != seq {
		t.Fatalf("optimistic zero-delay run diverged:\n  seq: %s\n  par: %s", seq, par)
	}
	if st.Rollbacks == 0 {
		t.Error("zero-delay adversarial schedule produced no rollbacks — straggler path untested")
	}
	if st.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
	t.Logf("events=%d rollbacks=%d antis=%d ckpts=%d", st.Events, st.Rollbacks, st.AntiMessages, st.Checkpoints)
}

// TestAntiMessageAnnihilation: when re-execution disowns a delivered
// message, the engine must emit anti-messages and still converge to
// the sequential state. The restrictive serialisation rate makes
// B's reply departure times depend on queueing, so a straggler ping
// inserted by rollback shifts the re-emitted replies — the stale
// originals must annihilate rather than survive as duplicates.
func TestAntiMessageAnnihilation(t *testing.T) {
	s, a, b, _ := optimisticPair(t, netem.Config{RateBps: 2e8}) // zero delay, ~2.6µs per packet on the wire
	pingPong(t, a, b, 200, 2*Microsecond)
	keepBusy(a, Microsecond, 500*Microsecond)
	keepBusy(b, Microsecond, 500*Microsecond)
	s.Run()
	st := s.EngineStats()
	if st.Rollbacks == 0 {
		t.Fatalf("adversarial workload exercised no speculation repair: %+v", st)
	}
	if st.AntiMessages == 0 {
		t.Fatalf("no delivery was ever disowned — annihilation path untested: %+v", st)
	}
	if got := b.Counters()["udp_delivered"]; got != 200 {
		t.Fatalf("pings delivered = %d, want 200", got)
	}
	if got := a.Counters()["udp_delivered"]; got != 200 {
		t.Fatalf("pongs delivered = %d, want 200", got)
	}
	// Every tentative message must have been reconciled.
	for _, sh := range s.shards {
		if len(sh.tentative) != 0 {
			t.Fatalf("shard %d left %d unacked tentative messages", sh.id, len(sh.tentative))
		}
	}
	t.Logf("events=%d rollbacks=%d antis=%d", st.Events, st.Rollbacks, st.AntiMessages)
}

// TestGVTBound: after every barrier, GVT must not exceed the minimum
// pending event time nor the timestamp of any unacknowledged
// (tentative) cross-shard message, and every shard's oldest retained
// checkpoint must sit at or below it (rollback reachability). GVT
// may transiently regress when a rollback replays committed-identical
// history — the replayed emissions are suppressed, so committed state
// is unaffected; monotone commitment is asserted by the equivalence
// suites, not here.
func TestGVTBound(t *testing.T) {
	s, a, b, _ := optimisticPair(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Microsecond})
	pingPong(t, a, b, 100, 5*Microsecond)
	keepBusy(a, 2*Microsecond, 400*Microsecond)
	keepBusy(b, 2*Microsecond, 400*Microsecond)
	barriers := 0
	s.onBarrier = func(gvt int64) {
		barriers++
		minNext := s.minNextAt()
		if gvt > minNext {
			t.Fatalf("GVT %d exceeds min pending event %d", gvt, minNext)
		}
		for _, sh := range s.shards {
			for _, tm := range sh.tentative {
				if gvt > tm.m.at {
					t.Fatalf("GVT %d exceeds unacked cross-shard message at %d", gvt, tm.m.at)
				}
				if gvt > tm.m.schedAt {
					t.Fatalf("GVT %d exceeds unacked send's emission time %d", gvt, tm.m.schedAt)
				}
			}
		}
	}
	s.Run()
	if barriers == 0 {
		t.Fatal("no barriers observed")
	}
	// After every barrier's trim, rollback reachability must hold:
	// verified continuously by the engine itself (rollbackShard panics
	// below the oldest retained checkpoint), and the run must end
	// fully reconciled.
	for _, sh := range s.shards {
		if len(sh.ckpts) != 0 || len(sh.tentative) != 0 {
			t.Fatalf("shard %d retained history after drain: %d ckpts, %d tentative",
				sh.id, len(sh.ckpts), len(sh.tentative))
		}
	}
}

// TestOptimisticZeroDelayCrossShard: the configuration the
// conservative engine rejects outright must run — and match the
// sequential schedule — under the optimistic engine.
func TestOptimisticZeroDelayCrossShard(t *testing.T) {
	run := func(optimistic bool) (int, uint64) {
		s := New(1)
		a, b, aIf := twoHosts(s, netem.Config{RateBps: 1e10})
		got := 0
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
		if optimistic {
			if err := s.SetShards(2); err == nil {
				t.Fatal("conservative engine accepted a zero-delay cross-shard link")
			}
			if err := s.SetShards(2, EngineOptimistic); err != nil {
				t.Fatalf("optimistic engine rejected a zero-delay cross-shard link: %v", err)
			}
		}
		for i := 0; i < 40; i++ {
			at := int64(i) * 50 * Microsecond
			a.Schedule(at, func() { a.Output(udpTo(t, bAddr, 7, "zd")) })
		}
		s.Run()
		return got, aIf.TxPackets
	}
	seqGot, seqTx := run(false)
	parGot, parTx := run(true)
	if seqGot != 40 || parGot != seqGot || parTx != seqTx {
		t.Fatalf("zero-delay optimistic run diverged: got=%d tx=%d, want %d/%d", parGot, parTx, seqGot, seqTx)
	}
}

// TestOptimisticJitteredCrossShard: jittered cross-shard links —
// also rejected conservatively — run bit-identically under the
// optimistic engine because jitter draws come from the snapshotted
// per-node streams.
func TestOptimisticJitteredCrossShard(t *testing.T) {
	run := func(shards int) string {
		s := New(5)
		a, b, _ := twoHosts(s, netem.Config{RateBps: 1e9, DelayNs: 20 * Microsecond, JitterNs: 15 * Microsecond})
		pingPong(t, a, b, 60, 4*Microsecond)
		keepBusy(a, 2*Microsecond, 400*Microsecond)
		keepBusy(b, 2*Microsecond, 400*Microsecond)
		if shards > 1 {
			if err := s.SetShards(shards); err == nil {
				t.Fatal("conservative engine accepted a jittered cross-shard link")
			}
			if err := s.SetShards(shards, EngineOptimistic); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		return fmt.Sprintf("aC=%v bC=%v", a.Counters(), b.Counters())
	}
	seq := run(1)
	if par := run(2); par != seq {
		t.Fatalf("jittered optimistic run diverged:\n  seq: %s\n  par: %s", seq, par)
	}
}

// TestRuntimeDelayBelowLookaheadRunsOptimistic ports the conservative
// engine's TestRuntimeDelayBelowLookaheadPanics expectations: the
// same runtime delay cut that forces the conservative engine to
// panic is just another straggler source for the optimistic engine —
// the run completes and matches the sequential schedule.
func TestRuntimeDelayBelowLookaheadRunsOptimistic(t *testing.T) {
	run := func(shards int) (int, EngineStats) {
		s := New(1)
		a, b, aIf := twoHosts(s, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
		got := 0
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
		if shards > 1 {
			if err := s.SetShards(shards, EngineOptimistic); err != nil {
				t.Fatal(err)
			}
		}
		aIf.Qdisc().SetDelay(Microsecond) // undercut the validated lookahead
		for i := 0; i < 20; i++ {
			at := int64(i) * 100 * Microsecond
			a.Schedule(at, func() { a.Output(udpTo(t, bAddr, 7, "x")) })
		}
		s.Run()
		return got, s.EngineStats()
	}
	seqGot, _ := run(1)
	parGot, st := run(2)
	if parGot != seqGot {
		t.Fatalf("optimistic run after runtime delay cut diverged: %d vs %d", parGot, seqGot)
	}
	if seqGot != 20 {
		t.Fatalf("scenario delivered %d of 20", seqGot)
	}
	t.Logf("rollbacks=%d antis=%d", st.Rollbacks, st.AntiMessages)
}

// TestOptimisticMultiRunBoundary: a run boundary commits history.
// Work scheduled at the committed instant — whose zero-delay
// cross-shard deliveries land at that same timestamp, below the
// previous run's execution frontier — must execute in the next run
// exactly as a sequential driver loop would, not panic as an
// unreachable straggler.
func TestOptimisticMultiRunBoundary(t *testing.T) {
	run := func(shards int) (uint64, uint64) {
		s := New(1)
		a, b, _ := twoHosts(s, netem.Config{RateBps: 1e10}) // zero delay
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		if shards > 1 {
			if err := s.SetShards(shards, EngineOptimistic); err != nil {
				t.Fatal(err)
			}
		}
		// Run 1: B executes local work up to t=1ms.
		keepBusy(b, 100*Microsecond, Millisecond)
		s.RunUntil(Millisecond)
		// Run 2: A emits at the committed instant; the delivery lands
		// at B's frontier over the zero-delay link.
		a.Schedule(s.Now(), func() { a.Output(udpTo(t, bAddr, 7, "boundary")) })
		s.Run()
		// Run 3: and again, after a draining Run.
		a.Schedule(s.Now(), func() { a.Output(udpTo(t, bAddr, 7, "again")) })
		s.Run()
		return b.Counters()["udp_delivered"], b.Counters()["busy_ticks"]
	}
	seqGot, seqTicks := run(1)
	parGot, parTicks := run(2)
	if seqGot != 2 {
		t.Fatalf("sequential boundary runs delivered %d, want 2", seqGot)
	}
	if parGot != seqGot || parTicks != seqTicks {
		t.Fatalf("optimistic multi-run diverged: delivered=%d ticks=%d, want %d/%d",
			parGot, parTicks, seqGot, seqTicks)
	}
}

// TestOptimisticStateHookRegistrationRollback: a ShardState hook
// registered inside a speculated event that later rolls back must be
// unhooked and its component rewound to the pre-registration state.
type probeState struct{ val int }

func (p *probeState) SnapshotState() any { return p.val }
func (p *probeState) RestoreState(v any) { p.val = v.(int) }

func TestOptimisticStateHookRegistrationRollback(t *testing.T) {
	s := New(1)
	n := s.AddNode("h", HostCostModel())
	p := &probeState{val: 1}
	snap := n.snapshot() // before registration
	n.RegisterState(p)
	p.val = 99
	n.restore(snap)
	if len(n.stateHooks) != 0 {
		t.Fatalf("hook registered during speculation survived rollback: %d hooks", len(n.stateHooks))
	}
	if p.val != 1 {
		t.Fatalf("component state after registration rollback = %d, want 1", p.val)
	}
	// Re-registration after the rollback starts from the rewound state.
	n.RegisterState(p)
	p.val = 7
	snap2 := n.snapshot()
	p.val = 8
	n.restore(snap2)
	if p.val != 7 {
		t.Fatalf("registered hook state = %d, want 7", p.val)
	}
}

// TestOptimisticSameShardSRHMutation is the regression lock for the
// per-hop packet-copy elision. The chain R -> E lives on one shard:
// R forwards SRv6 traffic to E's End SID, so R's pending commit
// closure (captured by a round-start checkpoint) references the same
// buffer E later advances in place at drain time — a read-modify-
// write, unlike the idempotent hop-limit rewrite plain forwarding
// does. If the copy-elision stamps the delivery with the era at
// transmit time instead of the era the buffer became private,
// rollback replays the captured commit with an already-advanced SRH
// and the schedule diverges from sequential.
func TestOptimisticSameShardSRHMutation(t *testing.T) {
	sid := netip.MustParseAddr("fc00:e::1")
	eAddr := netip.MustParseAddr("2001:db8:e::1")
	run := func(shards int) string {
		s := New(9)
		// Creation order pins the partition: {E, R} | {A, B}.
		e := s.AddNode("E", ServerCostModel())
		r := s.AddNode("R", ServerCostModel())
		a := s.AddNode("A", HostCostModel())
		b := s.AddNode("B", HostCostModel())
		a.AddAddress(aAddr)
		e.AddAddress(eAddr)
		b.AddAddress(bAddr)
		fast := netem.Config{RateBps: 1e10} // zero propagation delay everywhere
		reIf, erIf := ConnectSymmetric(r, e, fast)
		aIf, raIf := ConnectSymmetric(a, r, fast)
		ebIf, bIf := ConnectSymmetric(e, b, fast)
		a.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: aIf}}})
		b.AddRoute(&Route{Prefix: pfx("::/0"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: bIf}}})
		r.AddRoute(&Route{Prefix: netip.PrefixFrom(sid, 128), Kind: RouteForward, Nexthops: []Nexthop{{Iface: reIf}}})
		r.AddRoute(&Route{Prefix: pfx("2001:db8:a::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: raIf}}})
		e.AddRoute(&Route{Prefix: netip.PrefixFrom(sid, 128), Kind: RouteSeg6Local,
			Behaviour: &seg6.Behaviour{Action: seg6.ActionEnd}})
		e.AddRoute(&Route{Prefix: pfx("2001:db8:b::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: ebIf}}})
		e.AddRoute(&Route{Prefix: pfx("2001:db8:a::/48"), Kind: RouteForward, Nexthops: []Nexthop{{Iface: erIf}}})
		if shards > 1 {
			if err := s.SetShards(shards, EngineOptimistic); err != nil {
				t.Fatal(err)
			}
			// Pin the horizon near the per-packet CPU cost so commit
			// closures regularly straddle round boundaries — the
			// window in which a checkpoint captures a pending commit
			// and the copy-elision decision matters. (Verified to
			// fail against a transmit-time era stamp.)
			s.SetHorizon(3 * Microsecond)
			if e.shard != r.shard || a.shard != b.shard || e.shard == a.shard {
				t.Fatal("partition did not split {E,R} | {A,B}")
			}
		}
		// B journals every delivery with its hop limit: a replayed
		// commit transmitting an already-advanced packet still reaches
		// B (the rewritten destination routes as plain forwarding) but
		// burns one extra hop-limit decrement — the only trace the
		// corruption leaves. B also echoes every delivery straight
		// back over zero-delay links: stragglers into both shards.
		j := NewJournal(b)
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
			j.Addf("%d:hl%d", meta.RxTimestamp, p.IPv6.HopLimit)
			reply, err := packet.BuildPacket(bAddr, aAddr, packet.WithUDP(7, 8), packet.WithPayload([]byte("pong")))
			if err != nil {
				panic(err)
			}
			n.Output(reply)
		})
		a.HandleUDP(8, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		a.HandleUDP(9, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		// R also emits its own probe traffic (an FRR-style detector
		// would): each Output interleaves between other packets'
		// drains and deferred commits, so the transmit-time era stamp
		// must be the forwarded packet's own, not whatever the last
		// Output left behind.
		var probe func()
		probe = func() {
			raw, err := packet.BuildPacket(netip.MustParseAddr("2001:db8:e::2"), aAddr,
				packet.WithUDP(500, 9), packet.WithPayload([]byte("p")))
			if err != nil {
				panic(err)
			}
			r.Output(raw)
			if r.Now() < 450*Microsecond {
				r.After(700, probe)
			}
		}
		r.Schedule(0, probe)
		for i := 0; i < 400; i++ {
			at := int64(i) * Microsecond
			a.Schedule(at, func() {
				srh := packet.NewSRH([]netip.Addr{sid, bAddr})
				raw, err := packet.BuildPacket(aAddr, sid, packet.WithSRH(srh),
					packet.WithUDP(1000, 7), packet.WithPayload([]byte("x")))
				if err != nil {
					panic(err)
				}
				a.Output(raw)
			})
		}
		keepBusy(e, Microsecond, 500*Microsecond)
		keepBusy(r, Microsecond, 500*Microsecond)
		s.Run()
		return fmt.Sprintf("aC=%v rC=%v eC=%v bC=%v trace=%s", a.Counters(), r.Counters(), e.Counters(), b.Counters(), strings.Join(j.Lines(), ","))
	}
	seq := run(1)
	if !strings.Contains(seq, "udp_delivered:400") {
		t.Fatalf("sequential run did not deliver all 400 pings: %s", seq)
	}
	par := run(2)
	if par != seq {
		t.Fatalf("same-shard SRH mutation diverged under speculation:\n  seq: %s\n  par: %s", seq, par)
	}
}
