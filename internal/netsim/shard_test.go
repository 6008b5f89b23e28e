package netsim

import (
	"fmt"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
)

// shardPairTopo builds A --- B with the given link config and a
// default route each way.
func shardPairTopo(t *testing.T, cfg netem.Config) (*Sim, *Node, *Node, *Iface) {
	t.Helper()
	s := New(1)
	a, b, aIf := twoHosts(s, cfg)
	return s, a, b, aIf
}

func TestSetShardsValidation(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	if err := s.SetShards(0); err == nil {
		t.Error("SetShards(0) accepted")
	}
	if err := s.SetShards(3); err == nil {
		t.Error("3 shards for 2 nodes accepted")
	}
	if err := s.SetShards(2); err != nil {
		t.Errorf("valid 2-shard split rejected: %v", err)
	}
	if got := s.ShardCount(); got != 2 {
		t.Errorf("ShardCount = %d", got)
	}
	if got := s.Lookahead(); got != Millisecond {
		t.Errorf("lookahead = %d, want %d", got, Millisecond)
	}
	if err := s.SetShards(1); err != nil {
		t.Errorf("back to sequential rejected: %v", err)
	}
}

func TestSetShardsRejectsZeroDelayCrossLink(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10})
	err := s.SetShards(2)
	if err == nil || !strings.Contains(err.Error(), "zero propagation delay") {
		t.Fatalf("err = %v, want zero-delay rejection", err)
	}
	// The failed call must leave the sim runnable on one shard.
	if got := s.ShardCount(); got != 1 {
		t.Fatalf("ShardCount after failed SetShards = %d", got)
	}
}

func TestSetShardsRejectsJitteredCrossLink(t *testing.T) {
	s, _, _, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond, JitterNs: Microsecond})
	err := s.SetShards(2)
	if err == nil || !strings.Contains(err.Error(), "jitter") {
		t.Fatalf("err = %v, want jitter rejection", err)
	}
}

// TestCrossShardInFlightFailure re-runs the in-flight-kill scenario
// with the two link ends on different shards: the packet dies, the
// sender's DownDrops accounting survives the cross-shard handoff, and
// the outcome matches the sequential run.
func TestCrossShardInFlightFailure(t *testing.T) {
	run := func(shards int) (int, uint64, uint64) {
		s, a, b, aIf := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Millisecond})
		got := 0
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		a.Output(udpTo(t, bAddr, 7, "doomed"))
		s.FailLink(5*Millisecond, aIf)
		s.RestoreLink(8*Millisecond, aIf)
		s.Run()
		a.Schedule(s.Now(), func() { a.Output(udpTo(t, bAddr, 7, "alive")) })
		s.Run()
		return got, aIf.DownDrops(), aIf.TxPackets
	}
	seqGot, seqDown, seqTx := run(1)
	parGot, parDown, parTx := run(2)
	if seqGot != 1 || seqDown != 1 || seqTx != 2 {
		t.Fatalf("sequential run: got=%d down=%d tx=%d, want 1/1/2", seqGot, seqDown, seqTx)
	}
	if parGot != seqGot || parDown != seqDown || parTx != seqTx {
		t.Fatalf("2-shard run diverges: got=%d down=%d tx=%d, want %d/%d/%d",
			parGot, parDown, parTx, seqGot, seqDown, seqTx)
	}
}

// TestShardedStepDrainsInOrder: Step on a sharded sim executes the
// globally-earliest event and keeps cross-shard messages flowing.
func TestShardedStepDrainsInOrder(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	a.Output(udpTo(t, bAddr, 7, "stepped"))
	steps := 0
	for s.Step() {
		steps++
		if steps > 1000 {
			t.Fatal("Step never drained")
		}
	}
	if got != 1 {
		t.Fatalf("delivered = %d after %d steps", got, steps)
	}
}

// TestReshardCarriesPendingEvents: events scheduled before SetShards
// are re-routed to the shard of the node that scheduled them.
func TestReshardCarriesPendingEvents(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	a.Schedule(3*Millisecond, func() { a.Output(udpTo(t, bAddr, 7, "early-sched")) })
	fired := false
	s.Schedule(Millisecond, func() { fired = true }) // driver event -> shard 0
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !fired || got != 1 {
		t.Fatalf("fired=%v got=%d after reshard", fired, got)
	}
}

// TestRunUntilAdvancesAllShardClocks: after RunUntil(t) every node
// reports Now() == t, so driver-side pacing logic behaves identically
// in sequential and sharded runs.
func TestRunUntilAdvancesAllShardClocks(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(7 * Millisecond)
	if s.Now() != 7*Millisecond {
		t.Errorf("Sim.Now = %d", s.Now())
	}
	if a.Now() != 7*Millisecond || b.Now() != 7*Millisecond {
		t.Errorf("node clocks = %d/%d, want %d", a.Now(), b.Now(), 7*Millisecond)
	}
}

// TestRunClockMatchesSequential: after a draining Run(), Sim.Now()
// and the node clocks must land on the last executed event time —
// not on a window barrier — so driver code that schedules relative
// to Now() after Run() behaves identically for any shard count.
func TestRunClockMatchesSequential(t *testing.T) {
	run := func(shards int) (int64, int64) {
		s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Millisecond})
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		a.Output(udpTo(t, bAddr, 7, "tick"))
		s.Run()
		return s.Now(), a.Now()
	}
	seqNow, seqA := run(1)
	parNow, parA := run(2)
	if parNow != seqNow || parA != seqA {
		t.Fatalf("post-Run clocks diverge: sharded (%d, %d) vs sequential (%d, %d)",
			parNow, parA, seqNow, seqA)
	}
}

// TestRuntimeDelayBelowLookaheadPanics: lowering a cross-shard link's
// delay under the lookahead after SetShards must fail loudly, not
// silently desynchronise the schedule.
func TestRuntimeDelayBelowLookaheadPanics(t *testing.T) {
	s, a, b, aIf := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	aIf.Qdisc().SetDelay(Microsecond) // undercut the validated lookahead
	// Keep both shards busy so transmissions happen inside a window.
	for i := 0; i < 20; i++ {
		at := int64(i) * 100 * Microsecond
		a.Schedule(at, func() { a.Output(udpTo(t, bAddr, 7, "x")) })
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation went unnoticed")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.Run()
}

// TestEngineStatsAccounting: the per-shard cells add up and report
// through the deterministic merge.
func TestEngineStatsAccounting(t *testing.T) {
	s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: Millisecond})
	got := 0
	b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) { got++ })
	if err := s.SetShards(2); err != nil {
		t.Fatal(err)
	}
	a.Output(udpTo(t, bAddr, 7, "x"))
	s.Run()
	st := s.EngineStats()
	if st.Shards != 2 || st.Events == 0 || st.Messages == 0 || st.Windows == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got != 1 {
		t.Fatalf("delivered = %d", got)
	}
}

// TestOutboxesReleaseDelivered: once a barrier has moved the
// cross-shard messages of a window into the destination queues, the
// outboxes' backing arrays must not keep the delivered packets (their
// raw buffers and receiving ifaces) alive until a later window
// overwrites the slots. Every entry up to each outbox's capacity is
// zero after RunUntil, under both engines.
func TestOutboxesReleaseDelivered(t *testing.T) {
	for _, eng := range []Engine{EngineConservative, EngineOptimistic} {
		s, a, b, _ := shardPairTopo(t, netem.Config{RateBps: 1e10, DelayNs: 10 * Microsecond})
		j := NewJournal(b)
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
			j.Add("ping")
			n.Output(udpTo(t, aAddr, 8, "echo"))
		})
		a.HandleUDP(8, func(*Node, *packet.Packet, *PacketMeta) {})
		if err := s.SetShards(2, eng); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 40; i++ {
			a.Schedule(i*3*Microsecond, func() { a.Output(udpTo(t, bAddr, 7, "ping")) })
		}
		s.RunUntil(Millisecond)
		if got := len(j.Lines()); got != 40 {
			t.Fatalf("%v: %d pings delivered, want 40", eng, got)
		}
		used := 0
		for _, sh := range s.shards {
			for d, out := range sh.out {
				used += cap(out)
				for i, m := range out[:cap(out)] {
					if m.raw != nil || m.peer != nil || m.at != 0 {
						t.Fatalf("%v: shard %d outbox %d slot %d still holds a delivered message (at=%d, %d bytes)",
							eng, sh.id, d, i, m.at, len(m.raw))
					}
				}
			}
		}
		if used == 0 {
			t.Fatalf("%v: no outbox was ever used; the test exercises nothing", eng)
		}
	}
}
