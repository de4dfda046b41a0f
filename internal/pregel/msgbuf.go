package pregel

import (
	"math"

	"gmpregel/internal/graph"
)

// Message buffers are stored at the job's schema width, struct-of-arrays,
// from send to receive. A run buffers k = max(Schema.MessageSlots)
// payload slots per message and a one-byte type tag only when the schema
// does not declare exactly one message type. Outboxes (msgBox) keep the
// destination beside the payload because routing needs it; the routed
// inbox keeps only the payload, since the CSR row already names the
// destination vertex.

// msgBox is a struct-of-arrays message buffer: one destination per
// message, one type tag per message when the run is tagged (empty
// otherwise), and k payload slots per message at stride k. Chunk boxes,
// combiner raw logs and worker combiner outboxes all use it; every slice
// keeps its capacity across supersteps.
type msgBox struct {
	dst []graph.NodeID
	typ []uint8
	pay []uint64
}

// len returns the number of buffered messages.
//
//gm:noalloc
func (b *msgBox) len() int { return len(b.dst) }

// reset truncates the box, retaining capacity.
//
//gm:noalloc
func (b *msgBox) reset() {
	b.dst = b.dst[:0]
	b.typ = b.typ[:0]
	b.pay = b.pay[:0]
}

// push appends one message: its destination, its type t when tagged,
// and its k payload slots pay.
//
//gm:noalloc
func (b *msgBox) push(dst graph.NodeID, t uint8, pay []uint64, tagged bool) {
	b.dst = append(b.dst, dst) //gm:alloc-ok box capacity is retained across supersteps; grows only until the high-water mark
	if tagged {
		b.typ = append(b.typ, t) //gm:alloc-ok box capacity is retained across supersteps; grows only until the high-water mark
	}
	b.pay = append(b.pay, pay...) //gm:alloc-ok box capacity is retained across supersteps; grows only until the high-water mark
}

// grow returns b resized to n elements, reusing its capacity when it
// suffices.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Msgs is a read-only view of the messages delivered to one vertex: a
// window of its worker's inbox, grouped deterministically (source-worker
// order). Message i's payload slot s is read with Int/Float/Bool/Node(i,
// s); a slot the schema does not deliver reads as 0. The view aliases
// engine buffers and is valid only during the VertexCompute call that
// obtained it.
type Msgs struct {
	pay []uint64 // payload slots, stride k
	typ []uint8  // type tags; nil when the run stores none
	n   int
	k   int
}

// Len returns the number of messages.
//
//gm:noalloc
func (ms Msgs) Len() int { return ms.n }

// Type returns message i's type.
//
//gm:noalloc
func (ms Msgs) Type(i int) uint8 {
	if ms.typ == nil {
		return 0
	}
	return ms.typ[i]
}

//gm:noalloc
func (ms Msgs) slot(i, s int) uint64 {
	if uint(s) >= uint(ms.k) {
		return 0
	}
	return ms.pay[i*ms.k+s]
}

// Int reads payload slot s of message i as an int64.
//
//gm:noalloc
func (ms Msgs) Int(i, s int) int64 { return int64(ms.slot(i, s)) }

// Float reads payload slot s of message i as a float64.
//
//gm:noalloc
func (ms Msgs) Float(i, s int) float64 { return math.Float64frombits(ms.slot(i, s)) }

// Bool reads payload slot s of message i as a bool.
//
//gm:noalloc
func (ms Msgs) Bool(i, s int) bool { return ms.slot(i, s) != 0 }

// Node reads payload slot s of message i as a node ID.
//
//gm:noalloc
func (ms Msgs) Node(i, s int) graph.NodeID { return graph.NodeID(int32(uint32(ms.slot(i, s)))) }

// window sets ms to the inbox messages [lo, hi) of pay/typ.
//
//gm:noalloc
func (ms *Msgs) window(pay []uint64, typ []uint8, lo, hi int32, k int) {
	ms.n = int(hi - lo)
	ms.k = k
	ms.pay = pay[int(lo)*k : int(hi)*k]
	if typ != nil {
		ms.typ = typ[lo:hi]
	} else {
		ms.typ = nil
	}
}
