package pregel

import (
	"errors"
	"fmt"

	"gmpregel/internal/obs"
)

// ErrBudgetExceeded is returned (wrapped) when a run's accounted memory
// exceeds Config.MemoryBudget even after every degradation stage: the
// run aborts cleanly with partial Stats instead of running out of
// memory. Test with errors.Is.
var ErrBudgetExceeded = errors.New("pregel: memory budget exceeded")

// msgMemBytes is the governor's fixed accounting unit per buffered
// message: the size of a Msg (4-byte destination, 1-byte type plus
// padding, four 8-byte payload slots). It is not the resident size:
// buffers store only the schema's live slots (and a tag only in tagged
// runs), so a message usually occupies less. Keeping the unit fixed
// keeps MemoryPeakBytes and every govern decision independent of the
// buffer layout. Accounting multiplies buffer lengths (not capacities)
// by this constant, so accounted usage is a pure function of the
// configuration and seed — identical across chunk sizes, stealing, and
// executor schedules — which keeps governor decisions deterministic.
const msgMemBytes = 40

// governor enforces Config.MemoryBudget with staged graceful
// degradation, checked on the barrier goroutine at the two accounted
// peaks of a superstep (after a checkpoint is taken and after routing,
// when outboxes and the freshly routed inboxes coexist):
//
//	stage 1: release routed outbox retention — the boxes' contents were
//	         already copied into inboxes, and dropping their high-water
//	         capacity halves the duplicated message footprint;
//	stage 2: spill the largest resident inboxes to an unlinked temp-file
//	         segment store, restored bit-identically (and lazily, one
//	         chunk window at a time) during the next vertex phase;
//	stage 3: abort with ErrBudgetExceeded carrying partial Stats.
type governor struct {
	budget int64
	spill  spillStore
	enc    []byte // retained spill-encode scratch
}

// ckptHeldBytes is the resident footprint of retained checkpoints (the
// current rollback target and the torn-write fallback).
//
//gm:noalloc
func (e *engine) ckptHeldBytes() int64 {
	var u int64
	if e.ckpt != nil {
		u += int64(len(e.ckpt.data) + len(e.ckpt.job))
	}
	if e.ckptPrev != nil {
		u += int64(len(e.ckptPrev.data) + len(e.ckptPrev.job))
	}
	return u
}

// accountedUsage sums the engine's governed memory: buffered messages
// (inboxes, outboxes, raw combiner logs), inbox offset tables, and
// retained checkpoints. Spilled inboxes have zero resident length and
// drop out of the sum automatically. Runs on the barrier goroutine; the
// fast path is pure arithmetic over retained lengths.
//
//gm:noalloc
func (e *engine) accountedUsage() int64 {
	var u int64
	for _, wk := range e.workers {
		u += int64(wk.resident()) * msgMemBytes
		u += int64(len(wk.inOff)) * 4
		for d := range wk.outboxes {
			u += int64(wk.outboxes[d].len()) * msgMemBytes
		}
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			u += int64(ck.raw.len()) * msgMemBytes
			for d := range ck.boxes {
				u += int64(ck.boxes[d].len()) * msgMemBytes
			}
		}
	}
	return u + e.ckptHeldBytes()
}

// resident returns the number of inbox messages held in RAM: the routed
// total, or 0 once the inbox is spilled.
//
//gm:noalloc
func (wk *worker) resident() int {
	if wk.spilled {
		return 0
	}
	return wk.inTotal
}

// releaseOutboxes drops every outbox, chunk box, and raw log — contents
// and retained capacity — and returns the accounted bytes freed. Safe at
// a govern point: routing has already copied the contents into inboxes,
// and send paths re-grow the buffers on demand (the zero-allocation
// steady state resumes once capacity recovers its high-water mark).
func (e *engine) releaseOutboxes() int64 {
	var freed int64
	for _, wk := range e.workers {
		for d := range wk.outboxes {
			freed += int64(wk.outboxes[d].len()) * msgMemBytes
			wk.outboxes[d] = msgBox{}
		}
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			freed += int64(ck.raw.len()) * msgMemBytes
			ck.raw = msgBox{}
			for d := range ck.boxes {
				freed += int64(ck.boxes[d].len()) * msgMemBytes
				ck.boxes[d] = msgBox{}
			}
		}
	}
	return freed
}

// spillInbox writes wk's routed inbox to the segment store and drops the
// resident copy; the next vertex phase streams it back one chunk window
// at a time. Returns the accounted bytes freed.
func (e *engine) spillInbox(wk *worker, step int) (int64, error) {
	g := e.gov
	n := wk.inTotal
	var t0 int64
	if e.obsOn {
		t0 = e.nowNS()
	}
	g.enc = wk.encodeSpill(g.enc)
	off, err := g.spill.writeSegment(g.enc)
	if err != nil {
		return 0, err
	}
	wk.spillOff = off
	wk.spilled = true
	wk.inPay, wk.inTyp = nil, nil
	disk := int64(n) * spillRecBytes
	e.stats.Spills++
	e.stats.SpillBytes += disk
	if e.obsOn {
		e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseSpill,
			StartNS: t0, DurNS: e.nowNS() - t0, Messages: int64(n), Bytes: disk})
	}
	return int64(n) * msgMemBytes, nil
}

// govern runs the staged degradation at one accounted peak. It returns
// nil when usage fits the budget (possibly after degradation) and a
// wrapped ErrBudgetExceeded when even a fully spilled engine does not.
func (e *engine) govern(step int) error {
	g := e.gov
	usage := e.accountedUsage()
	if usage > e.stats.MemoryPeakBytes {
		e.stats.MemoryPeakBytes = usage
	}
	if usage <= g.budget {
		return nil
	}
	usage -= e.releaseOutboxes()
	for usage > g.budget {
		var victim *worker
		for _, wk := range e.workers {
			if wk.resident() > 0 && (victim == nil || wk.resident() > victim.resident()) {
				victim = wk
			}
		}
		if victim == nil {
			break
		}
		freed, err := e.spillInbox(victim, step)
		if err != nil {
			return err
		}
		usage -= freed
	}
	if usage <= g.budget {
		return nil
	}
	return fmt.Errorf("%w: superstep %d needs %d accounted bytes after outbox release and inbox spill, budget is %d",
		ErrBudgetExceeded, step, usage, g.budget)
}

// readSpillWindow streams the chunk's slice of wk's spilled inbox into
// this executor's retained scratch, decoded to the inbox layout (payload
// at stride k, tags in tagged runs) that the message views read. The
// window is contiguous on disk because chunk local-index ranges are
// contiguous in the CSR inbox.
func (x *executor) readSpillWindow(wk *worker, ck *chunk) ([]uint64, []uint8, error) {
	first := int(wk.inOff[ck.lo])
	count := int(wk.inOff[ck.hi]) - first
	raw, err := x.e.gov.spill.readWindow(x.spillRaw, wk.spillOff, first, count)
	x.spillRaw = raw
	if err != nil {
		return nil, nil, err
	}
	x.spillPay, x.spillTyp = wk.decodeSpill(raw, x.spillPay, x.spillTyp)
	return x.spillPay, x.spillTyp, nil
}

// unspillAll restores every spilled inbox to RAM, bit-identical to its
// pre-spill contents. Called before a checkpoint is encoded; the
// post-checkpoint govern pass re-spills if the budget still demands it.
func (e *engine) unspillAll() error {
	for _, wk := range e.workers {
		if !wk.spilled {
			continue
		}
		raw, err := e.gov.spill.readWindow(nil, wk.spillOff, 0, wk.inTotal)
		if err != nil {
			return err
		}
		wk.inPay, wk.inTyp = wk.decodeSpill(raw, nil, nil)
		wk.spilled = false
	}
	return nil
}
