package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gmpregel/internal/graph"
)

func floatBits(f float64) uint64        { return math.Float64bits(f) }
func floatFromBits(b uint64) float64    { return math.Float64frombits(b) }
func nodeFromU32(v uint32) graph.NodeID { return graph.NodeID(int32(v)) }

// Checkpointable is implemented by jobs whose state the engine snapshots
// at checkpoint barriers and restores on rollback. SnapshotState must
// capture every piece of state the job mutates during compute (property
// columns, scratch slices, master-side accumulators); RestoreState must
// bring the job back to exactly that state. Jobs that keep no state
// between supersteps may omit the interface: the engine then checkpoints
// only its own state (inboxes, active flags, globals, aggregators, RNG
// positions) and recovery remains sound.
type Checkpointable interface {
	SnapshotState() []byte
	RestoreState([]byte)
}

// countingSource is a math/rand Source that counts draws so a checkpoint
// can record the stream position and a rollback can restore it by
// replaying from the seed. It deliberately does not implement Source64:
// rand.Rand then derives every method from Int63, so the draw count
// fully determines the stream position. (rand.Rand.Read is the one
// method whose buffered byte state is not captured; compute functions
// must not use it.)
type countingSource struct {
	seed  int64
	src   rand.Source
	draws int64
	high  int64 // largest draw count a jump rewound from
}

// reached is the furthest stream position this source has drawn to,
// including positions a rollback rewound.
func (s *countingSource) reached() int64 { return max(s.draws, s.high) }

func newCountingSource(seed int64) *countingSource {
	//gm:nondeterministic-ok seeded from Config.Seed and draw-counted, so checkpoints replay the exact stream position
	return &countingSource{seed: seed, src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// jump rewinds to the seed and fast-forwards the stream to the given
// draw count.
func (s *countingSource) jump(draws int64) {
	s.high = s.reached()
	s.src.Seed(s.seed)
	s.draws = 0
	for s.draws < draws {
		s.draws++
		s.src.Int63()
	}
}

// checkpoint is one recovery point: the engine state serialized at the
// barrier entering superstep step, plus the job's own snapshot.
type checkpoint struct {
	step int
	data []byte // engine state (stats, master, globals, aggregators, workers)
	job  []byte // Checkpointable snapshot; nil when the job is stateless
}

// checkpointDue reports whether a checkpoint should be taken at the
// barrier entering step. With CheckpointEvery = k, checkpoints land
// before supersteps 0, k, 2k, …; with only a fault plan configured, a
// single superstep-0 checkpoint makes full replay possible. A fresh
// rollback target for the same step is never retaken (the state would be
// byte-identical).
func (e *engine) checkpointDue(step int) bool {
	if !e.ckptOn {
		return false
	}
	if e.ckpt != nil && e.ckpt.step == step {
		return false
	}
	if e.cfg.CheckpointEvery > 0 {
		return step%e.cfg.CheckpointEvery == 0
	}
	return step == 0
}

// takeCheckpoint snapshots engine and job state at the barrier entering
// step and accounts the serialized size. The previous snapshot is
// retained as the fallback target for torn-write recovery. Spilled
// inboxes are restored to RAM first (the encoder serializes resident
// state); the post-checkpoint govern pass re-spills if the budget still
// demands it.
func (e *engine) takeCheckpoint(step int) error {
	if e.gov != nil {
		if err := e.unspillAll(); err != nil {
			return err
		}
	}
	ck := &checkpoint{step: step, data: e.encodeState()}
	if c, ok := e.job.(Checkpointable); ok {
		ck.job = c.SnapshotState()
	}
	e.ckptPrev = e.ckpt
	e.ckpt = ck
	e.stats.Checkpoints++
	e.stats.CheckpointBytes += int64(len(ck.data) + len(ck.job))
	if e.armCheckpointFault(step) {
		// Injected crash mid-write: flip a byte in the middle of the
		// snapshot, as a torn write would. The corruption is detected by
		// verifyFrame on the next rollback, which falls back to ckptPrev.
		ck.data[len(ck.data)/2] ^= 0xFF
	}
	return nil
}

// rollback restores the last checkpoint after an injected fault and
// returns the superstep to resume from. A snapshot that fails its
// integrity frame (torn write, bit rot) is discarded in favor of the
// retained previous checkpoint. Rollback fails when no valid checkpoint
// exists or the recovery budget is exhausted; the caller then surfaces
// the error with whatever partial Stats accumulated.
func (e *engine) rollback(f *InjectedFault) (int, error) {
	if e.ckpt == nil {
		return 0, fmt.Errorf("%w (no checkpoint to recover from)", f)
	}
	if e.stats.Recoveries >= e.cfg.MaxRecoveries {
		return 0, fmt.Errorf("%w (recovery budget of %d exhausted)", f, e.cfg.MaxRecoveries)
	}
	if !verifyFrame(e.ckpt.data) {
		if e.ckptPrev == nil || !verifyFrame(e.ckptPrev.data) {
			return 0, fmt.Errorf("%w (checkpoint at superstep %d is corrupt and no valid fallback exists)",
				f, e.ckpt.step)
		}
		// Promote the fallback; checkpointDue will retake the discarded
		// step with a fresh snapshot when replay reaches it.
		e.ckpt = e.ckptPrev
		e.ckptPrev = nil
	}
	// Supersteps whose work is re-executed: everything since the
	// checkpoint plus the failed superstep itself.
	recovered := f.Superstep - e.ckpt.step + 1
	if err := e.restoreCheckpoint(); err != nil {
		return 0, err
	}
	e.stats.Recoveries++
	e.stats.RecoveredSupersteps += recovered
	return e.ckpt.step, nil
}

func (e *engine) restoreCheckpoint() (err error) {
	if derr := e.decodeState(e.ckpt.data); derr != nil {
		return fmt.Errorf("pregel: corrupt checkpoint: %w", derr)
	}
	if c, ok := e.job.(Checkpointable); ok && e.ckpt.job != nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pregel: job RestoreState panicked: %v", r)
			}
		}()
		c.RestoreState(e.ckpt.job)
	}
	return nil
}

// ---- Engine state serialization ----
//
// The engine state at a barrier is serialized to a flat byte buffer:
// master return/halt flags, the master RNG draw count, globals,
// aggregator cells, the Stats counters a rollback must rewind, and per
// worker the active flags, routed inbox (CSR), and RNG draw count.
// Outboxes, combiner indexes, and per-step counters are never stored:
// at a checkpoint barrier their contents are either already routed into
// the serialized inboxes or per-step transients, so restore just
// truncates/clears them (capacity is retained for the replay).

// checkpointVersion is bumped whenever the serialized layout changes;
// decodeState rejects any other version rather than misreading bytes.
// History: v1 encoded three per-step counters; v2 extends StepStats to
// six (adds NetworkMsgs, LocalBytes, ControlBytes); v3 wraps the payload
// in an integrity frame —
//
//	[version:u8][payloadLen:u64 LE][payload][fnv64a(payload):u64 LE]
//
// — so a torn or bit-flipped snapshot is detected instead of decoded;
// v4 appended a per-superstep push/pull direction history; v5 drops that
// history together with the per-worker RNG draw-count slot v2 reserved
// (always written as zero since vertex RNG streams became per-vertex
// seeded).
const checkpointVersion = 5

// frameHeaderBytes is the version byte plus the payload-length word;
// frameTrailerBytes the checksum word.
const (
	frameHeaderBytes  = 1 + 8
	frameTrailerBytes = 8
)

// fnv64a is the FNV-1a hash of b (the checkpoint integrity checksum).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// verifyFrame reports whether data is a structurally intact
// checkpoint: version, exact length, and payload checksum all match.
func verifyFrame(data []byte) bool {
	_, err := framePayload(data)
	return err == nil
}

// framePayload checks data's integrity frame and returns its payload.
func framePayload(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	if v := data[0]; v != checkpointVersion {
		return nil, fmt.Errorf("unknown checkpoint version %d", v)
	}
	if len(data) < frameHeaderBytes+frameTrailerBytes {
		return nil, fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	// Compare plen with the payload bytes present instead of adding it
	// to the frame size, which a corrupt length word could wrap around.
	plen := binary.LittleEndian.Uint64(data[1:frameHeaderBytes])
	avail := uint64(len(data) - frameHeaderBytes - frameTrailerBytes)
	if plen > avail {
		return nil, fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	if plen < avail {
		return nil, fmt.Errorf("checkpoint has %d trailing bytes", avail-plen)
	}
	payload := data[frameHeaderBytes : frameHeaderBytes+plen]
	if fnv64a(payload) != binary.LittleEndian.Uint64(data[frameHeaderBytes+plen:]) {
		return nil, fmt.Errorf("checkpoint checksum mismatch")
	}
	return payload, nil
}

// msgWireBytes is one inbox message's encoded size: destination, type
// and payload slots.
const msgWireBytes = 4 + 1 + 8*len(Msg{}.V)

type stateEnc struct{ b []byte }

func (w *stateEnc) u8(v byte)    { w.b = append(w.b, v) }
func (w *stateEnc) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *stateEnc) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *stateEnc) i64(v int64)  { w.u64(uint64(v)) }
func (w *stateEnc) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type stateDec struct {
	b   []byte
	off int
	bad bool
}

func (r *stateDec) take(n int) []byte {
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return make([]byte, n)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}
func (r *stateDec) u8() byte    { return r.take(1)[0] }
func (r *stateDec) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *stateDec) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *stateDec) i64() int64  { return int64(r.u64()) }

// bool accepts only the two encodings stateEnc.bool writes.
func (r *stateDec) bool() bool {
	b := r.u8()
	if b > 1 {
		r.bad = true
	}
	return b == 1
}

// count reads a u32 element count and checks that the payload still
// holds that many elements of elemBytes each, so a corrupt count can
// neither drive a huge allocation nor a long loop over missing bytes.
func (r *stateDec) count(elemBytes int) int {
	n := int(r.u32())
	if r.bad || n > (len(r.b)-r.off)/elemBytes {
		r.bad = true
		return 0
	}
	return n
}

func (e *engine) encodeState() []byte {
	w := &stateEnc{}
	w.u8(checkpointVersion)
	w.u64(0) // payload length, patched once the payload is complete
	w.bool(e.halted)
	w.bool(e.retSet)
	w.bool(e.retIsInt)
	w.i64(e.retInt)
	w.u64(floatBits(e.retFloat))
	w.i64(e.masterSrc.draws)
	w.u32(uint32(len(e.globals)))
	for _, g := range e.globals {
		w.u64(g)
	}
	w.i64(e.globalBytes)
	w.u32(uint32(len(e.aggValues)))
	for _, c := range e.aggValues {
		w.bool(c.set)
		w.i64(c.i)
		w.u64(floatBits(c.f))
	}
	w.i64(int64(e.stats.Supersteps))
	w.i64(e.stats.MessagesSent)
	w.i64(e.stats.NetworkMsgs)
	w.i64(e.stats.NetworkBytes)
	w.i64(e.stats.LocalBytes)
	w.i64(e.stats.ControlBytes)
	w.i64(e.stats.VertexCalls)
	w.u32(uint32(len(e.stats.Steps)))
	for _, s := range e.stats.Steps {
		w.i64(s.Messages)
		w.i64(s.NetworkBytes)
		w.i64(s.VertexCalls)
		w.i64(s.NetworkMsgs)
		w.i64(s.LocalBytes)
		w.i64(s.ControlBytes)
	}
	w.u32(uint32(len(e.workers)))
	for _, wk := range e.workers {
		w.u32(uint32(len(wk.active)))
		for _, a := range wk.active {
			w.bool(a)
		}
		w.u32(uint32(wk.inTotal))
		for li, v := range wk.ids {
			for p := int(wk.inOff[li]); p < int(wk.inOff[li+1]); p++ {
				m := wk.inboxMsg(p, v)
				w.u32(uint32(m.Dst))
				w.u8(m.Type)
				for _, v := range m.V {
					w.u64(v)
				}
			}
		}
		w.u32(uint32(len(wk.inOff)))
		for _, o := range wk.inOff {
			w.u32(uint32(o))
		}
	}
	plen := len(w.b) - frameHeaderBytes
	binary.LittleEndian.PutUint64(w.b[1:frameHeaderBytes], uint64(plen))
	w.u64(fnv64a(w.b[frameHeaderBytes : frameHeaderBytes+plen]))
	return w.b
}

// restoreInbox rebuilds wk's inbox from total checkpoint records,
// placed by the already-restored inOff table. The inbox stores neither
// destinations nor, in untagged runs, types, nor slots beyond k, so a
// record whose destination is not its row's vertex, an untagged record
// with a nonzero type, or a nonzero unbuffered slot is rejected — as is
// an offset table that does not partition exactly total messages.
// Accepting only what the encoder writes keeps decode∘encode the
// identity.
func (wk *worker) restoreInbox(recs []byte, total int) error {
	n := len(wk.ids)
	if wk.inOff[0] != 0 {
		return fmt.Errorf("worker %d inbox offsets start at %d, want 0", wk.index, wk.inOff[0])
	}
	for li := 0; li < n; li++ {
		if wk.inOff[li+1] < wk.inOff[li] {
			return fmt.Errorf("worker %d inbox offsets decrease at vertex %d", wk.index, li)
		}
	}
	if int(wk.inOff[n]) != total {
		return fmt.Errorf("worker %d inbox offsets cover %d messages, inbox holds %d", wk.index, wk.inOff[n], total)
	}
	wk.inTotal = total
	wk.sizeInbox(total)
	k := wk.k
	r := &stateDec{b: recs}
	for li, v := range wk.ids {
		for p := int(wk.inOff[li]); p < int(wk.inOff[li+1]); p++ {
			if dst := nodeFromU32(r.u32()); dst != v {
				return fmt.Errorf("worker %d inbox message %d is addressed to %d, its row is vertex %d", wk.index, p, dst, v)
			}
			t := r.u8()
			if wk.tagged {
				wk.inTyp[p] = t
			} else if t != 0 {
				return fmt.Errorf("worker %d inbox message %d has type %d in an untagged run", wk.index, p, t)
			}
			for s := 0; s < MaxPayloadSlots; s++ {
				x := r.u64()
				if s < k {
					wk.inPay[p*k+s] = x
				} else if x != 0 {
					return fmt.Errorf("worker %d inbox message %d sets unbuffered slot %d", wk.index, p, s)
				}
			}
		}
	}
	return nil
}

// decodeState restores the engine to the serialized barrier state,
// clearing every transient a crashed superstep may have dirtied
// (outboxes, combiner indexes, per-step counters, local aggregator
// cells, worker errors). The monotone recovery-cost counters
// (Recoveries, RecoveredSupersteps, Checkpoints, CheckpointBytes) are
// preserved, not rewound.
func (e *engine) decodeState(data []byte) error {
	payload, err := framePayload(data)
	if err != nil {
		return err
	}
	r := &stateDec{b: payload}
	e.halted = r.bool()
	e.retSet = r.bool()
	e.retIsInt = r.bool()
	e.retInt = r.i64()
	e.retFloat = floatFromBits(r.u64())
	// A snapshot of this run never records more master draws than the
	// run has made, which also bounds the replay loop in jump.
	draws := r.i64()
	if draws < 0 || draws > e.masterSrc.reached() {
		return fmt.Errorf("checkpoint master RNG position %d beyond the run's %d draws", draws, e.masterSrc.reached())
	}
	e.masterSrc.jump(draws)
	if n := int(r.u32()); n != len(e.globals) {
		return fmt.Errorf("global count mismatch: %d vs %d", n, len(e.globals))
	}
	for i := range e.globals {
		e.globals[i] = r.u64()
	}
	e.globalBytes = r.i64()
	if n := int(r.u32()); n != len(e.aggValues) {
		return fmt.Errorf("aggregator count mismatch: %d vs %d", n, len(e.aggValues))
	}
	for i := range e.aggValues {
		e.aggValues[i] = aggCell{set: r.bool(), i: r.i64(), f: floatFromBits(r.u64())}
	}
	rec, recSteps, cks, ckb := e.stats.Recoveries, e.stats.RecoveredSupersteps, e.stats.Checkpoints, e.stats.CheckpointBytes
	sp, spb, mpk, wds := e.stats.Spills, e.stats.SpillBytes, e.stats.MemoryPeakBytes, e.stats.WatchdogStalls
	e.stats = Stats{
		Supersteps:   int(r.i64()),
		MessagesSent: r.i64(),
		NetworkMsgs:  r.i64(),
		NetworkBytes: r.i64(),
		LocalBytes:   r.i64(),
		ControlBytes: r.i64(),
		VertexCalls:  r.i64(),
	}
	e.stats.Recoveries, e.stats.RecoveredSupersteps, e.stats.Checkpoints, e.stats.CheckpointBytes = rec, recSteps, cks, ckb
	e.stats.Spills, e.stats.SpillBytes, e.stats.MemoryPeakBytes, e.stats.WatchdogStalls = sp, spb, mpk, wds
	if n := r.count(6 * 8); n > 0 {
		e.stats.Steps = make([]StepStats, n)
		for i := range e.stats.Steps {
			e.stats.Steps[i] = StepStats{
				Messages:     r.i64(),
				NetworkBytes: r.i64(),
				VertexCalls:  r.i64(),
				NetworkMsgs:  r.i64(),
				LocalBytes:   r.i64(),
				ControlBytes: r.i64(),
			}
		}
	}
	if n := int(r.u32()); n != len(e.workers) {
		return fmt.Errorf("worker count mismatch: %d vs %d", n, len(e.workers))
	}
	for _, wk := range e.workers {
		if n := r.count(1); r.bad || n != len(wk.active) {
			return fmt.Errorf("worker %d active-flag count mismatch", wk.index)
		}
		wk.numActive = 0
		for i := range wk.active {
			wk.active[i] = r.bool()
			if wk.active[i] {
				wk.numActive++
			}
		}
		// The inbox records precede the offset table that gives them their
		// rows, so they are decoded once the table is read.
		total := r.count(msgWireBytes)
		recs := r.take(total * msgWireBytes)
		if n := int(r.u32()); n != len(wk.inOff) {
			return fmt.Errorf("worker %d inbox-offset count mismatch", wk.index)
		}
		for i := range wk.inOff {
			wk.inOff[i] = int32(r.u32())
		}
		if r.bad {
			return fmt.Errorf("malformed checkpoint payload (%d bytes)", len(payload))
		}
		if err := wk.restoreInbox(recs, total); err != nil {
			return err
		}
		// Transients a crashed superstep may have dirtied. Outbox, raw-log
		// and box slices keep their capacity: replay reuses them. Chunk
		// active counters are recomputed from the restored flags so the
		// chunk/worker invariant holds before the next vertex phase.
		for d := range wk.outboxes {
			wk.outboxes[d].reset()
		}
		if wk.combineIdx != nil {
			clear(wk.combineIdx)
		}
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			na := int32(0)
			for li := ck.lo; li < ck.hi; li++ {
				if wk.active[li] {
					na++
				}
			}
			ck.numActive = na
			for d := range ck.boxes {
				ck.boxes[d].reset()
			}
			ck.raw.reset()
			for s := range ck.agg {
				ck.agg[s] = aggCell{}
			}
			ck.msgs, ck.netMsgs, ck.netBytes, ck.localBytes, ck.calls = 0, 0, 0, 0, 0
			ck.err = nil
		}
		wk.msgs, wk.netMsgs, wk.netBytes, wk.localBytes, wk.calls = 0, 0, 0, 0, 0
		for s := range wk.aggPartial {
			wk.aggPartial[s] = aggCell{}
		}
		wk.cursor.Store(0)
		wk.pendingChunks.Store(0)
		wk.crashed.Store(false)
		wk.faultAt = -1
		wk.chunkFaultAt = -1
		wk.stealFault.Store(false)
		wk.foldFault = false
		wk.routeFaultOn = false
		wk.phaseErr = nil
		wk.stallNS = 0
		wk.spilled = false
		wk.inDepth.Store(int64(wk.inTotal))
	}
	for _, x := range e.executors {
		x.err = nil
		x.rngStep = -1
	}
	if r.bad || r.off != len(r.b) {
		return fmt.Errorf("malformed checkpoint payload (%d bytes)", len(payload))
	}
	return nil
}
