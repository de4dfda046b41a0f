package pregel

// Message-layout tests: buffers sized by Schema.MessageSlots must not
// change results, Stats, spill accounting or recovery, and the
// checkpoint decoder must reject inbox layouts the encoder never writes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// layoutJob sends k-slot messages of one or three types (type t carries
// max(k-t, 0) slots) along every out-edge and to one pseudo-random
// vertex, and folds every delivered message — type and all
// MaxPayloadSlots slots — into an order-sensitive per-vertex hash.
// declare selects exact MessageSlots versus nil (every type at
// MaxPayloadSlots); combine registers a slot-wise sum combiner per type.
type layoutJob struct {
	n, steps, types, k int
	declare, combine   bool
	acc                []uint64
}

func (j *layoutJob) width(t int) int { return max(j.k-t, 0) }

func (j *layoutJob) Schema() Schema {
	var s Schema
	for t := 0; t < j.types; t++ {
		s.MessagePayloadBytes = append(s.MessagePayloadBytes, 8*j.width(t))
		if j.declare {
			s.MessageSlots = append(s.MessageSlots, j.width(t))
		}
		if j.combine {
			s.Combiners = append(s.Combiners, func(into *Msg, m Msg) {
				for s := range into.V {
					into.V[s] += m.V[s]
				}
			})
		}
	}
	return s
}

func (j *layoutJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() > j.steps {
		mc.Halt()
	}
}

func (j *layoutJob) msg(t int, v graph.NodeID, step, salt int) Msg {
	m := Msg{Type: uint8(t)}
	for s := 0; s < j.width(t); s++ {
		m.V[s] = uint64(v)*1000003 + uint64(step)*31 + uint64(s) + uint64(salt)<<40 + 1
	}
	return m
}

func (j *layoutJob) VertexCompute(vc *VertexContext) {
	v := vc.ID()
	msgs := vc.Messages()
	h := j.acc[v]
	for i := range msgs.Len() {
		h = (h ^ uint64(msgs.Type(i))) * 1099511628211
		for s := 0; s < MaxPayloadSlots; s++ {
			h = (h ^ uint64(msgs.Int(i, s))) * 1099511628211
		}
	}
	j.acc[v] = h
	step := vc.Superstep()
	if step >= j.steps {
		vc.VoteToHalt()
		return
	}
	t := (int(v) + step) % j.types
	vc.SendToAllNbrs(j.msg(t, v, step, 0))
	u := (t + 1) % j.types
	vc.Send(graph.NodeID((int(v)*7+step)%j.n), j.msg(u, v, step, 1))
}

func (j *layoutJob) SnapshotState() []byte {
	b := make([]byte, 8*len(j.acc))
	for i, h := range j.acc {
		binary.LittleEndian.PutUint64(b[8*i:], h)
	}
	return b
}

func (j *layoutJob) RestoreState(b []byte) {
	for i := range j.acc {
		j.acc[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Property: for every buffer width k ∈ {0,1,2,4}, one or three types,
// plain or combined sends, and every chunk size and worker count, the
// exact MessageSlots declaration runs bit-identically to the nil (k=4)
// one — outputs and full Stats, including the governor's accounting
// under a spill-forcing budget — and a spilled or fault-recovered run
// matches the clean run.
func TestMessageLayoutEquivalence(t *testing.T) {
	const n, steps = 40, 5
	g := gen.TwitterLike(n, 3, 5)
	type result struct {
		acc []uint64
		st  Stats
	}
	run := func(t *testing.T, k, types int, declare, combine bool, cfg Config) result {
		t.Helper()
		j := &layoutJob{n: n, steps: steps, types: types, k: k, declare: declare, combine: combine, acc: make([]uint64, n)}
		cfg.Seed, cfg.TraceSteps = 3, true
		st, err := Run(g, j, cfg)
		if err != nil {
			t.Fatalf("declare=%v cfg=%+v: %v", declare, cfg, err)
		}
		return result{j.acc, st}
	}
	same := func(t *testing.T, what string, a, b result, modRecovery bool) {
		t.Helper()
		if !reflect.DeepEqual(a.acc, b.acc) {
			t.Errorf("%s: outputs differ", what)
		}
		sa, sb := a.st, b.st
		if modRecovery {
			sa, sb = statsModuloRecovery(sa), statsModuloRecovery(sb)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: Stats differ:\n%+v\n%+v", what, sa, sb)
		}
	}
	for _, k := range []int{0, 1, 2, 4} {
		for _, types := range []int{1, 3} {
			for _, combine := range []bool{false, true} {
				name := fmt.Sprintf("k%d-types%d-combine%v", k, types, combine)
				t.Run(name, func(t *testing.T) {
					for _, w := range []int{1, 2, 7} {
						var ref result
						for ci, chunk := range []int{0, 1, 16} {
							cfg := Config{NumWorkers: w, ChunkSize: chunk}
							where := fmt.Sprintf("workers=%d chunk=%d", w, chunk)
							exact := run(t, k, types, true, combine, cfg)
							same(t, where+" nil vs exact slots", run(t, k, types, false, combine, cfg), exact, false)
							if ci == 0 {
								ref = exact
							} else {
								same(t, where+" vs chunk 0", ref, exact, false)
							}

							gov := cfg
							gov.MemoryBudget = 1 << 40
							peak := run(t, k, types, true, combine, gov).st.MemoryPeakBytes
							gov.MemoryBudget = peak / 4
							spilled := run(t, k, types, true, combine, gov)
							if spilled.st.Spills == 0 {
								t.Errorf("%s: budget %d of peak %d did not spill", where, gov.MemoryBudget, peak)
							}
							same(t, where+" spilled vs clean", exact, spilled, true)
							same(t, where+" spilled nil vs exact slots", run(t, k, types, false, combine, gov), spilled, false)

							faulty := cfg
							faulty.CheckpointEvery = 2
							faulty.Faults = FaultPlan{
								{Superstep: 2, Worker: w - 1, Phase: FaultVertexCompute},
								{Superstep: 3, Worker: 0, Phase: FaultRoutePlace},
							}
							rec := run(t, k, types, true, combine, faulty)
							if rec.st.Recoveries != 2 {
								t.Errorf("%s: Recoveries = %d, want 2", where, rec.st.Recoveries)
							}
							same(t, where+" recovered vs clean", exact, rec, true)
						}
					}
				})
			}
		}
	}
}

// Run rejects a MessageSlots declaration that does not match the
// message types or exceeds MaxPayloadSlots.
func TestSchemaMessageSlotsValidated(t *testing.T) {
	g := gen.Ring(4)
	for _, tc := range []struct {
		name  string
		slots []int
		want  string
	}{
		{"length", []int{1, 1}, "slot counts for 2 message types"},
		{"negative", []int{-1}, "-1 payload slots"},
		{"too-wide", []int{MaxPayloadSlots + 1}, "payload slots"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := &schemaJob{Job: &minLabelJob{label: make([]int64, 4)},
				s: Schema{MessagePayloadBytes: []int{8}, MessageSlots: tc.slots}}
			if _, err := Run(g, j, Config{NumWorkers: 2}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// schemaJob runs Job under a replacement Schema.
type schemaJob struct {
	Job
	s Schema
}

func (j *schemaJob) Schema() Schema { return j.s }

// inboxSection locates worker w's inbox in a checkpoint payload: the
// offset of its first message record, its message count, and the offset
// of its inbox-offset table.
func inboxSection(e *engine, payload []byte, w int) (recs, total, offs int) {
	off := 3 + 8 + 8 + 8 + 4 + 8*len(e.globals) + 8 + 4 + 17*len(e.aggValues) + 7*8
	off += 4 + 48*len(e.stats.Steps) + 4
	for i := 0; ; i++ {
		off += 4 + int(binary.LittleEndian.Uint32(payload[off:]))
		total = int(binary.LittleEndian.Uint32(payload[off:]))
		recs = off + 4
		offs = recs + total*msgWireBytes + 4
		if i == w {
			return recs, total, offs
		}
		off = offs + 4*int(binary.LittleEndian.Uint32(payload[offs-4:]))
	}
}

// The checkpoint decoder accepts only inbox layouts the encoder writes:
// offsets that start at 0, never decrease and end at the message count,
// records addressed to their row's vertex, no type tag in an untagged
// run, and no unbuffered slot set. Without these checks a contradictory
// offset table decoded cleanly and failed later as a slice-bounds panic
// in vertex compute.
func TestCheckpointInboxLayoutRejected(t *testing.T) {
	full := checkpointEngine(t)
	defer full.stop()
	narrow := newEngine(gen.Ring(8), &schemaJob{Job: &minLabelJob{label: make([]int64, 8)},
		s: Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}}},
		Config{NumWorkers: 2, Seed: 4, CheckpointEvery: 1}.withDefaults())
	defer narrow.stop()
	narrow.cfg.MaxSupersteps = 5
	if err := narrow.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	for _, tc := range []struct {
		name  string
		e     *engine
		patch func(p []byte, recs, total, offs int)
		want  string
	}{
		{"offset-start", full, func(p []byte, _, _, offs int) {
			binary.LittleEndian.PutUint32(p[offs:], 1)
		}, "start at 1"},
		{"offset-decrease", full, func(p []byte, _, total, offs int) {
			binary.LittleEndian.PutUint32(p[offs+4:], uint32(total+1))
		}, "decrease at vertex 1"},
		{"offset-total", full, func(p []byte, _, _, offs int) {
			binary.LittleEndian.PutUint32(p[offs+4*4:], 1000)
		}, "cover 1000 messages"},
		{"destination", full, func(p []byte, recs, _, _ int) {
			binary.LittleEndian.PutUint32(p[recs:], binary.LittleEndian.Uint32(p[recs:])+1)
		}, "is addressed to"},
		{"untagged-type", full, func(p []byte, recs, _, _ int) {
			p[recs+4] = 1
		}, "untagged run"},
		{"unbuffered-slot", narrow, func(p []byte, recs, _, _ int) {
			binary.LittleEndian.PutUint64(p[recs+5+8:], 7)
		}, "unbuffered slot 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			data := e.encodeState()
			payload := append([]byte(nil), data[frameHeaderBytes:len(data)-frameTrailerBytes]...)
			recs, total, offs := inboxSection(e, payload, 1)
			if total == 0 || len(e.workers[1].ids) != 4 {
				t.Fatalf("worker 1 holds %d messages over %d vertices, want a nonempty 4-vertex inbox", total, len(e.workers[1].ids))
			}
			if got := int(binary.LittleEndian.Uint32(payload[offs+4*4:])); got != total {
				t.Fatalf("last inbox offset at payload offset %d = %d, want %d", offs+16, got, total)
			}
			tc.patch(payload, recs, total, offs)
			err := e.decodeState(frameCheckpoint(checkpointVersion, payload))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
			if err := e.decodeState(data); err != nil {
				t.Fatalf("valid decode after rejection failed: %v", err)
			}
		})
	}
}

// The committed valid_checkpoint fuzz seed, encoded before buffers were
// sized by the schema, still decodes and re-encodes byte-identically:
// the codec's inbox layout did not change.
func TestValidCheckpointSeedRoundTrips(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeState/valid_checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	s, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(s)
	e := checkpointEngine(t)
	defer e.stop()
	if err := e.decodeState(data); err != nil {
		t.Fatalf("committed checkpoint rejected: %v", err)
	}
	if got := e.encodeState(); !bytes.Equal(got, data) {
		t.Fatal("committed checkpoint re-encodes differently")
	}
}

// sloppyJob sends two messages of each type 0..3 with all four slots
// set, to check what the schema lets through: widths[t] slots of a
// declared type t, max(widths) slots of an undeclared one. combiner, when
// set, is registered for every declared type.
type sloppyJob struct {
	t        *testing.T
	widths   []int
	combiner Combiner
	got      int
}

func (j *sloppyJob) Schema() Schema {
	s := Schema{MessageSlots: j.widths}
	for range j.widths {
		s.MessagePayloadBytes = append(s.MessagePayloadBytes, 8)
		if j.combiner != nil {
			s.Combiners = append(s.Combiners, j.combiner)
		}
	}
	return s
}

func (j *sloppyJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 2 {
		mc.Halt()
	}
}

func (j *sloppyJob) VertexCompute(vc *VertexContext) {
	if vc.Superstep() == 0 {
		for t := range 8 {
			m := Msg{Type: uint8(t % 4), V: [MaxPayloadSlots]uint64{1, 2, 3, 4}}
			vc.Send(vc.ID(), m)
		}
		return
	}
	msgs := vc.Messages()
	for i := range msgs.Len() {
		t := int(msgs.Type(i))
		if len(j.widths) == 1 && t != 0 {
			j.t.Errorf("untagged run delivered type %d", t)
		}
		w := slices.Max(j.widths) // an undeclared type keeps every buffered slot
		if t < len(j.widths) {
			w = j.widths[t]
		}
		for s := 0; s < MaxPayloadSlots; s++ {
			if got := msgs.Int(i, s); s >= w && got != 0 {
				j.t.Errorf("widths %v: type %d slot %d delivered %d, want 0", j.widths, t, s, got)
			} else if s < w && got == 0 {
				j.t.Errorf("widths %v: type %d slot %d not delivered", j.widths, t, s)
			}
		}
	}
	j.got += msgs.Len()
}

// A message delivers only its type's declared slots, and an untagged
// run delivers every message as type 0, on the plain and combiner paths,
// even when the combiner writes every slot.
func TestUndeclaredSlotsNotDelivered(t *testing.T) {
	sum := func(into *Msg, m Msg) {
		for s := range into.V {
			into.V[s] += m.V[s]
		}
	}
	fill := func(into *Msg, m Msg) {
		for s := range into.V {
			into.V[s] = 7
		}
	}
	for _, widths := range [][]int{{2}, {3, 1}, {2, 0, 4, 1}} {
		for _, c := range []Combiner{nil, sum, fill} {
			j := &sloppyJob{t: t, widths: widths, combiner: c}
			if _, err := Run(gen.Ring(4), j, Config{NumWorkers: 1}); err != nil {
				t.Fatal(err)
			}
			if j.got == 0 {
				t.Fatalf("widths %v: no message delivered", widths)
			}
		}
	}
}

// Combining into a pending message allocates nothing in steady state,
// on the direct single-chunk path and the raw-log fold: the combiner
// works on worker-owned scratch rebuilt from the buffered slots.
func TestCombiningSendZeroAlloc(t *testing.T) {
	const n = 64
	g := gen.Ring(n)
	for _, tc := range []struct {
		name      string
		chunkSize int
	}{{"single-chunk", 0}, {"raw-fold", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(g, &perfCombJob{steps: 4}, Config{NumWorkers: 4, Seed: 1, ChunkSize: tc.chunkSize}.withDefaults())
			defer e.stop()
			wk := e.workers[0]
			var m Msg
			m.SetFloat(0, 1)
			vc := sendContext(e, wk, 0)
			cycle := func() {
				resetOutbound(wk)
				for i := 0; i < n; i++ {
					vc.Send(graph.NodeID(i%8), m)
				}
				if !wk.single {
					wk.fold()
				}
			}
			cycle()
			if a := testing.AllocsPerRun(20, cycle); a != 0 {
				t.Fatalf("steady-state combining send allocates %v per superstep, want 0", a)
			}
			if got := wk.msgs; got == 0 {
				t.Fatal("no message reached the combiner outboxes")
			}
		})
	}
}
