package netsim

import (
	"fmt"
	"testing"

	"srv6bpf/internal/netem"
)

// eventCoreKinds are the three event kinds of the packet path, each as
// one schedule call on the node: a closure (Node.Schedule), a link
// delivery (Iface.send on a same-shard link) and a drain continuation.
// The delivery's receiving end carries a newer fail epoch, so executing
// it stops at the in-flight-kill check: the op is the event core alone,
// not the receive datapath behind it. The continuation finds an empty
// ring and parks the CPU.
var eventCoreKinds = []struct {
	name     string
	schedule func(a *Node, aIf *Iface, raw []byte)
}{
	{"closure", func(a *Node, _ *Iface, _ []byte) { a.Schedule(a.Now()+1, eventCoreNoop) }},
	{"deliver", func(a *Node, aIf *Iface, raw []byte) { aIf.send(raw, a.Now()+1, a.Now(), 0) }},
	{"drain", func(a *Node, _ *Iface, _ []byte) { a.scheduleDrainCont(1) }},
}

func eventCoreNoop() {}

// eventCoreSim builds A --- B on one shard with depth far-future
// events pending on A, so every scheduled event sifts through a heap
// of that depth.
func eventCoreSim(depth int) (*Sim, *Node, *Iface) {
	s := New(1)
	a, _, aIf := twoHosts(s, netem.Config{RateBps: 1e10, DelayNs: Microsecond})
	aIf.peer.failEpoch++
	const far = int64(1) << 50
	for i := 0; i < depth; i++ {
		a.Schedule(far+int64(i)*Microsecond, eventCoreNoop)
	}
	return s, a, aIf
}

// BenchmarkEventCore times one schedule plus one execute of each event
// kind at heap depths 8, 256 and 1024.
func BenchmarkEventCore(b *testing.B) {
	raw := make([]byte, 64)
	for _, kind := range eventCoreKinds {
		for _, depth := range []int{8, 256, 1024} {
			b.Run(fmt.Sprintf("%s/depth=%d", kind.name, depth), func(b *testing.B) {
				s, a, aIf := eventCoreSim(depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kind.schedule(a, aIf, raw)
					s.Step()
				}
			})
		}
	}
}

// TestEventCoreZeroAlloc locks the steady-state schedule/execute cycle
// of every packet-path event kind at 0 allocations once the slab is
// warm, and checks the slab stays at its high-water length: each
// executed event's slot goes back on the free list and the next
// schedule reuses it.
func TestEventCoreZeroAlloc(t *testing.T) {
	raw := make([]byte, 64)
	const depth = 256
	for _, kind := range eventCoreKinds {
		s, a, aIf := eventCoreSim(depth)
		op := func() {
			kind.schedule(a, aIf, raw)
			if !s.Step() {
				t.Fatal("no event to execute")
			}
		}
		op() // warm: the slab grows to depth+1 slots
		if got := testing.AllocsPerRun(1000, op); got != 0 {
			t.Errorf("%s: %v allocs per schedule+execute, want 0", kind.name, got)
		}
		if q := &s.shards[0].events; len(q.keys) != depth || len(q.slab) != depth+1 {
			t.Errorf("%s: %d keys over %d slab slots, want %d over %d",
				kind.name, len(q.keys), len(q.slab), depth, depth+1)
		}
	}
}
