package pregel

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gmpregel/internal/graph/gen"
	"gmpregel/internal/obs"
)

// A traced run emits the full phase structure: checkpoint, master,
// per-worker vertex compute, barrier, routing, and the final run span
// carrying the authoritative totals.
func TestObserverSpanPhases(t *testing.T) {
	const n, workers = 60, 4
	g := gen.Ring(n)
	ring := obs.NewRing(4096)
	j := &minLabelJob{label: make([]int64, n)}
	st, err := Run(g, j, Config{NumWorkers: workers, Seed: 3, CheckpointEvery: 4, Observer: ring})
	if err != nil {
		t.Fatal(err)
	}
	spans := ring.Spans()
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans; raise capacity", ring.Dropped())
	}

	byPhase := map[obs.Phase][]obs.Span{}
	for _, s := range spans {
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
	}
	if got := len(byPhase[obs.PhaseMaster]); got < st.Supersteps {
		t.Errorf("master spans = %d, want >= %d", got, st.Supersteps)
	}
	if got, want := len(byPhase[obs.PhaseVertexCompute]), st.Supersteps*workers; got != want {
		t.Errorf("vertex-compute spans = %d, want %d", got, want)
	}
	if got, want := len(byPhase[obs.PhaseBarrier]), st.Supersteps; got != want {
		t.Errorf("barrier spans = %d, want %d", got, want)
	}
	if got, want := len(byPhase[obs.PhaseRouting]), st.Supersteps; got != want {
		t.Errorf("routing spans = %d, want %d", got, want)
	}
	if got, want := len(byPhase[obs.PhaseCheckpoint]), st.Checkpoints; got != want {
		t.Errorf("checkpoint spans = %d, want %d", got, want)
	}
	if len(byPhase[obs.PhaseRecovery]) != 0 {
		t.Errorf("fault-free run emitted %d recovery spans", len(byPhase[obs.PhaseRecovery]))
	}

	// Vertex-compute spans carry per-worker attribution that sums to the
	// run totals; engine-scoped spans use worker -1.
	var msgs, netBytes, calls int64
	seenWorkers := map[int]bool{}
	for _, s := range byPhase[obs.PhaseVertexCompute] {
		if s.Worker < 0 || s.Worker >= workers {
			t.Fatalf("vertex span has worker %d", s.Worker)
		}
		seenWorkers[s.Worker] = true
		msgs += s.Messages
		netBytes += s.Bytes
		calls += s.VertexCalls
	}
	if len(seenWorkers) != workers {
		t.Errorf("saw spans from %d workers, want %d", len(seenWorkers), workers)
	}
	if msgs != st.MessagesSent || netBytes != st.NetworkBytes || calls != st.VertexCalls {
		t.Errorf("span sums (%d msgs, %d bytes, %d calls) != stats (%d, %d, %d)",
			msgs, netBytes, calls, st.MessagesSent, st.NetworkBytes, st.VertexCalls)
	}
	for _, p := range []obs.Phase{obs.PhaseMaster, obs.PhaseBarrier, obs.PhaseRouting, obs.PhaseCheckpoint} {
		for _, s := range byPhase[p] {
			if s.Worker != -1 {
				t.Fatalf("%s span has worker %d, want -1", p, s.Worker)
			}
		}
	}
	var ckptBytes int64
	for _, s := range byPhase[obs.PhaseCheckpoint] {
		ckptBytes += s.Bytes
	}
	if ckptBytes != st.CheckpointBytes {
		t.Errorf("checkpoint span bytes = %d, want %d", ckptBytes, st.CheckpointBytes)
	}

	// Exactly one run span, last, with authoritative totals.
	last := spans[len(spans)-1]
	if len(byPhase[obs.PhaseRun]) != 1 || last.Phase != obs.PhaseRun {
		t.Fatalf("want exactly one trailing run span, got %d", len(byPhase[obs.PhaseRun]))
	}
	if last.Worker != -1 || last.Messages != st.MessagesSent ||
		last.Bytes != st.NetworkBytes || last.VertexCalls != st.VertexCalls || last.DurNS <= 0 {
		t.Errorf("run span %+v does not carry run totals %+v", last, st)
	}
}

// Chunk spans attribute every scheduling chunk of the vertex phase:
// one span per chunk per superstep, owner in Worker, executing pool
// goroutine in Executor, Stolen marking the two differing. Their
// per-worker sums equal the aggregated vertex-compute spans, and the
// skew report derives executor-grouped chunk rows from them.
func TestObserverChunkSpans(t *testing.T) {
	const n, workers, chunkSize = 120, 4, 8
	g := gen.TwitterLike(n, 5, 17)
	ring := obs.NewRing(1 << 16)
	j := &minLabelJob{label: make([]int64, n)}
	st, err := Run(g, j, Config{NumWorkers: workers, Seed: 3, ChunkSize: chunkSize, Observer: ring})
	if err != nil {
		t.Fatal(err)
	}
	spans := ring.Spans()
	chunksPerStep := 0
	for w := 0; w < workers; w++ {
		nw := (n - w + workers - 1) / workers
		chunksPerStep += (nw + chunkSize - 1) / chunkSize
	}
	var chunkSpans []obs.Span
	vertexTotals := map[[2]int][3]int64{} // (step, worker) -> msgs, bytes, calls
	for _, s := range spans {
		switch s.Phase {
		case obs.PhaseChunk:
			chunkSpans = append(chunkSpans, s)
			if s.Worker < 0 || s.Worker >= workers || s.Executor < 0 || s.Executor >= workers {
				t.Fatalf("chunk span with bad attribution: %+v", s)
			}
			if s.Stolen != (s.Worker != s.Executor) {
				t.Fatalf("chunk span stolen flag inconsistent: %+v", s)
			}
		case obs.PhaseVertexCompute:
			vertexTotals[[2]int{s.Superstep, s.Worker}] = [3]int64{s.Messages, s.Bytes, s.VertexCalls}
		}
	}
	if got, want := len(chunkSpans), st.Supersteps*chunksPerStep; got != want {
		t.Fatalf("chunk spans = %d, want %d (%d chunks x %d supersteps)",
			got, want, chunksPerStep, st.Supersteps)
	}
	sums := map[[2]int][3]int64{}
	for _, s := range chunkSpans {
		k := [2]int{s.Superstep, s.Worker}
		v := sums[k]
		v[0] += s.Messages
		v[1] += s.Bytes
		v[2] += s.VertexCalls
		sums[k] = v
	}
	for k, want := range vertexTotals {
		if got := sums[k]; got != want {
			t.Errorf("step %d worker %d: chunk span sums %v != vertex-compute span %v",
				k[0], k[1], got, want)
		}
	}
	// The skew report groups the chunk rows by executor.
	rep := obs.Skew(spans)
	row, ok := rep.Row("chunk")
	if !ok {
		t.Fatal("skew report missing chunk row")
	}
	if row.Spans != len(chunkSpans) || row.Workers < 1 || row.Workers > workers {
		t.Errorf("chunk skew row %+v inconsistent with %d spans", row, len(chunkSpans))
	}
}

// A crash-and-recover run emits recovery spans and keeps the rolled-back
// supersteps visible in the trace (Stats rewinds; the trace does not).
func TestObserverRecoveryVisibleInTrace(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	ring := obs.NewRing(8192)
	j := &minLabelJob{label: make([]int64, n)}
	st, err := Run(g, j, Config{
		NumWorkers: 4, Seed: 3, CheckpointEvery: 4,
		Faults:   FaultPlan{{Superstep: 7, Worker: 2}},
		Observer: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	var recoveries, step7Barriers int
	for _, s := range ring.Spans() {
		if s.Phase == obs.PhaseRecovery {
			recoveries++
			if s.Superstep != 7 || s.Worker != 2 {
				t.Errorf("recovery span attributed to superstep %d worker %d, want 7/2", s.Superstep, s.Worker)
			}
		}
		if s.Phase == obs.PhaseBarrier && s.Superstep == 7 {
			step7Barriers++
		}
	}
	if recoveries != 1 {
		t.Errorf("recovery spans = %d, want 1", recoveries)
	}
	// Superstep 7 crashed before its barrier, then replayed to completion:
	// exactly one barrier, but supersteps 4..7 each ran twice, so the
	// trace holds more vertex work than Stats.VertexCalls admits.
	if step7Barriers != 1 {
		t.Errorf("superstep-7 barrier spans = %d, want 1", step7Barriers)
	}
	var tracedCalls int64
	for _, s := range ring.Spans() {
		if s.Phase == obs.PhaseVertexCompute {
			tracedCalls += s.VertexCalls
		}
	}
	if tracedCalls <= st.VertexCalls {
		t.Errorf("traced calls %d should exceed post-rollback stats %d", tracedCalls, st.VertexCalls)
	}
}

// Satellite acceptance: under fault injection, Stats.Steps — including
// the extended NetworkMsgs/LocalBytes/ControlBytes fields — is
// bit-identical to the fault-free run's.
func TestTraceStepsBitIdenticalUnderFaults(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3, TraceSteps: true}
	_, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 4
	faulty.Faults = FaultPlan{{Superstep: 7, Worker: 2}, {Superstep: 13, Worker: 1}}
	_, fst := runMinLabel(t, g, n, faulty)

	if fst.Recoveries != 2 {
		t.Fatalf("Recoveries = %d, want 2", fst.Recoveries)
	}
	if !reflect.DeepEqual(st.Steps, fst.Steps) {
		t.Errorf("per-step stats differ under fault injection:\nfault-free: %+v\nfaulty:     %+v", st.Steps, fst.Steps)
	}
	if len(st.Steps) != st.Supersteps {
		t.Fatalf("len(Steps) = %d, want %d", len(st.Steps), st.Supersteps)
	}
	// The extended per-step fields must sum to the run totals.
	var sum StepStats
	for _, s := range st.Steps {
		sum.Messages += s.Messages
		sum.NetworkBytes += s.NetworkBytes
		sum.VertexCalls += s.VertexCalls
		sum.NetworkMsgs += s.NetworkMsgs
		sum.LocalBytes += s.LocalBytes
		sum.ControlBytes += s.ControlBytes
	}
	want := StepStats{
		Messages:     st.MessagesSent,
		NetworkBytes: st.NetworkBytes,
		VertexCalls:  st.VertexCalls,
		NetworkMsgs:  st.NetworkMsgs,
		LocalBytes:   st.LocalBytes,
		ControlBytes: st.ControlBytes,
	}
	if sum != want {
		t.Errorf("per-step sums %+v != run totals %+v", sum, want)
	}
}

// Old checkpoint versions are rejected with a clear error instead of
// being misread under the new layout.
func TestCheckpointOldVersionRejected(t *testing.T) {
	const n = 30
	g := gen.Ring(n)
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 4, TraceSteps: true, CheckpointEvery: 1}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	e.cfg.MaxSupersteps = 5
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	data := e.encodeState()
	if data[0] != checkpointVersion {
		t.Fatalf("version byte = %d, want %d", data[0], checkpointVersion)
	}
	for _, v := range []byte{1, 0, 4, 99} {
		old := append([]byte(nil), data...)
		old[0] = v
		err := e.decodeState(old)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown checkpoint version %d", v)) {
			t.Errorf("version %d: err = %v, want unknown-version rejection", v, err)
		}
	}
	// The engine remains usable after a rejected decode.
	if err := e.decodeState(data); err != nil {
		t.Fatalf("valid decode after rejection failed: %v", err)
	}
}
