package pregel

// Robustness-layer tests: the resource governor's staged degradation
// (outbox release, inbox spill, clean budget abort), the superstep
// watchdog's stall detection and supervised recovery, the extended
// fault-phase matrix, the codec v3 integrity frame, and the
// barrier-consistency of partial Stats under aborts that race recovery.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// ---- Resource governor ----

// A run under a budget of a fraction of the unconstrained accounted peak
// must complete bit-identically by spilling inboxes to the temp-file
// segment store instead of aborting (acceptance criterion: graceful
// degradation before ErrBudgetExceeded).
func TestGovernorSpillCompletesBitIdentical(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	run := func(budget int64) (*perfRankJob, Stats, error) {
		j := newPerfRankJob(n, 6)
		st, err := Run(g, j, Config{NumWorkers: 4, Seed: 2, MemoryBudget: budget})
		return j, st, err
	}
	clean, cleanSt, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	// A huge budget never degrades but measures the accounted peak.
	_, peakSt, err := run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	peak := peakSt.MemoryPeakBytes
	if peak == 0 {
		t.Fatal("MemoryPeakBytes = 0 under an enabled governor")
	}
	if peakSt.Spills != 0 {
		t.Fatalf("Spills = %d under a huge budget, want 0", peakSt.Spills)
	}
	for _, frac := range []struct {
		name   string
		budget int64
	}{{"half-peak", peak / 2}, {"quarter-peak", peak / 4}} {
		t.Run(frac.name, func(t *testing.T) {
			j, st, err := run(frac.budget)
			if err != nil {
				t.Fatalf("budget %d of peak %d: %v", frac.budget, peak, err)
			}
			if !reflect.DeepEqual(clean.rank, j.rank) {
				t.Errorf("budget-constrained ranks differ from unconstrained run")
			}
			if a, b := statsModuloRecovery(cleanSt), statsModuloRecovery(st); !reflect.DeepEqual(a, b) {
				t.Errorf("budget-constrained stats differ:\nclean:    %+v\nbudgeted: %+v", a, b)
			}
			if frac.budget == peak/4 && st.Spills == 0 {
				t.Errorf("quarter-peak budget completed without spilling (peak %d, budget %d)", peak, frac.budget)
			}
			if st.Spills > 0 && st.SpillBytes == 0 {
				t.Errorf("Spills = %d but SpillBytes = 0", st.Spills)
			}
		})
	}
}

// A budget below the post-degradation floor aborts cleanly with a
// wrapped ErrBudgetExceeded and barrier-consistent partial Stats —
// never an OOM or panic.
func TestGovernorBudgetExhaustedAbortsCleanly(t *testing.T) {
	const n = 128
	g := gen.TwitterLike(n, 4, 3)
	j := newPerfRankJob(n, 6)
	st, err := Run(g, j, Config{NumWorkers: 4, Seed: 2, MemoryBudget: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error message %q does not mention the budget", err)
	}
	// The floor (inbox offset tables) exceeds 1 byte at the very first
	// govern point, so the run aborts before any superstep commits.
	if st.Supersteps != 0 {
		t.Errorf("Supersteps = %d, want 0 (barrier-consistent abort)", st.Supersteps)
	}
	if st.MemoryPeakBytes == 0 {
		t.Errorf("MemoryPeakBytes = 0, want the pre-abort accounted usage")
	}
}

// The spill segment store round-trips messages bit-identically, both
// whole segments and chunk-aligned sub-windows, across multiple
// appended segments.
func TestSpillStoreRoundTrip(t *testing.T) {
	var s spillStore
	defer s.close()
	mk := func(k, salt int) []Msg {
		msgs := make([]Msg, k)
		for i := range msgs {
			msgs[i].Dst = graph.NodeID(i*3 + salt)
			msgs[i].Type = uint8((i + salt) % 3)
			for sl := 0; sl < MaxPayloadSlots; sl++ {
				msgs[i].V[sl] = uint64(i+salt)<<32 | uint64(sl) | 0x8000000000000000
			}
		}
		return msgs
	}
	// The record and raw buffers are reused across calls, as the engine
	// reuses its spill scratch.
	var recs, raw []byte
	writeSegment := func(msgs []Msg) (int64, error) {
		recs = grow(recs, len(msgs)*spillRecBytes)
		for i := range msgs {
			encodeSpillRec(recs[i*spillRecBytes:], &msgs[i])
		}
		return s.writeSegment(recs)
	}
	readWindow := func(off int64, first, count int) ([]Msg, error) {
		var err error
		raw, err = s.readWindow(raw, off, first, count)
		msgs := make([]Msg, len(raw)/spillRecBytes)
		for i := range msgs {
			decodeSpillRec(raw[i*spillRecBytes:], &msgs[i])
		}
		return msgs, err
	}
	a := mk(17, 0)
	offA, err := writeSegment(a)
	if err != nil {
		t.Fatal(err)
	}
	b := mk(5, 1000)
	offB, err := writeSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if offB != int64(len(a))*spillRecBytes {
		t.Errorf("second segment offset = %d, want %d", offB, int64(len(a))*spillRecBytes)
	}
	got, err := readWindow(offA, 0, len(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("segment A round-trip differs")
	}
	win, err := readWindow(offA, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[4:13], win) {
		t.Errorf("sub-window [4:13) round-trip differs")
	}
	got, err = readWindow(offB, 0, len(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Errorf("segment B round-trip differs")
	}
	empty, err := readWindow(offA, 3, 0)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty window: msgs=%v err=%v", empty, err)
	}
}

// A worker's resident inbox encodes to spill records and decodes back to
// the same payload slots and tags at every buffer width, tagged and
// untagged; each record's destination is its CSR row's vertex.
func TestWorkerSpillCodecRoundTrip(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		for _, tagged := range []bool{false, true} {
			wk := &worker{k: k, tagged: tagged}
			wk.ids = []graph.NodeID{3, 8, 13, 21}
			wk.inOff = []int32{0, 2, 2, 5, 6}
			wk.inTotal = 6
			wk.inPay = make([]uint64, wk.inTotal*k)
			for i := range wk.inPay {
				wk.inPay[i] = uint64(i+1)<<40 | 0x8000000000000001
			}
			if tagged {
				wk.inTyp = []uint8{2, 0, 1, 1, 3, 0}
			}
			var buf []byte
			var pay []uint64
			var typ []uint8
			// Twice, so the second pass reuses every buffer.
			for range 2 {
				buf = wk.encodeSpill(buf)
				if len(buf) != wk.inTotal*spillRecBytes {
					t.Fatalf("k=%d tagged=%v: %d spill bytes, want %d", k, tagged, len(buf), wk.inTotal*spillRecBytes)
				}
				for li, v := range wk.ids {
					for p := wk.inOff[li]; p < wk.inOff[li+1]; p++ {
						var m Msg
						decodeSpillRec(buf[int(p)*spillRecBytes:], &m)
						if m.Dst != v {
							t.Errorf("k=%d tagged=%v: record %d Dst = %d, want %d", k, tagged, p, m.Dst, v)
						}
						if slices.ContainsFunc(m.V[k:], func(x uint64) bool { return x != 0 }) {
							t.Errorf("k=%d tagged=%v: record %d unbuffered slots %v, want 0", k, tagged, p, m.V[k:])
						}
					}
				}
				pay, typ = wk.decodeSpill(buf, pay, typ)
				if !slices.Equal(pay, wk.inPay) {
					t.Errorf("k=%d tagged=%v: payload %v, want %v", k, tagged, pay, wk.inPay)
				}
				if tagged && !slices.Equal(typ, wk.inTyp) {
					t.Errorf("k=%d tagged=%v: tags %v, want %v", k, tagged, typ, wk.inTyp)
				}
			}
		}
	}
}

// ---- Superstep watchdog ----

// An injected worker stall overrunning StepDeadline trips the watchdog,
// which converts it into supervised rollback-and-replay; the replay runs
// unstalled and finishes bit-identical to a clean run.
func TestWatchdogStallRecoveryBitIdentical(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3}
	labels, st := runMinLabel(t, g, n, base)

	stalled := base
	stalled.StepDeadline = 50 * time.Millisecond
	stalled.Stalls = []Stall{{Superstep: 3, Worker: 1, Duration: 500 * time.Millisecond}}
	sLabels, sst := runMinLabel(t, g, n, stalled)

	if !reflect.DeepEqual(labels, sLabels) {
		t.Errorf("stalled-run labels differ from clean run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(sst); !reflect.DeepEqual(a, b) {
		t.Errorf("stalled-run stats differ:\nclean:   %+v\nstalled: %+v", a, b)
	}
	if sst.WatchdogStalls < 1 {
		t.Errorf("WatchdogStalls = %d, want >= 1", sst.WatchdogStalls)
	}
	if sst.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", sst.Recoveries)
	}
}

// A healthy run with the watchdog enabled never trips and never
// perturbs results: the EWMA-derived deadline is many multiples of the
// trailing superstep time with a generous floor.
func TestWatchdogHealthyRunNoTrips(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3}
	labels, st := runMinLabel(t, g, n, base)

	guarded := base
	guarded.Watchdog = true
	gLabels, gst := runMinLabel(t, g, n, guarded)

	if !reflect.DeepEqual(labels, gLabels) {
		t.Errorf("watchdog-guarded labels differ from clean run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(gst); !reflect.DeepEqual(a, b) {
		t.Errorf("watchdog-guarded stats differ:\nclean:   %+v\nguarded: %+v", a, b)
	}
	if gst.WatchdogStalls != 0 || gst.Recoveries != 0 {
		t.Errorf("healthy run tripped: WatchdogStalls=%d Recoveries=%d", gst.WatchdogStalls, gst.Recoveries)
	}
}

// backoffFor is a pure function of (seed, attempt, base, cap): capped
// exponential with deterministic jitter in [d/2, d].
func TestWatchdogBackoffDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for attempt := 0; attempt < 12; attempt++ {
			d1 := backoffFor(seed, attempt, 0, 0)
			d2 := backoffFor(seed, attempt, 0, 0)
			if d1 != d2 {
				t.Fatalf("seed %d attempt %d: %v != %v", seed, attempt, d1, d2)
			}
			// Expected undegraded duration for the default base/cap.
			want := defaultBackoffBase
			for i := 0; i < attempt && want < defaultBackoffCap; i++ {
				want *= 2
			}
			if want > defaultBackoffCap {
				want = defaultBackoffCap
			}
			if d1 < want/2 || d1 > want {
				t.Fatalf("seed %d attempt %d: backoff %v outside [%v, %v]", seed, attempt, d1, want/2, want)
			}
		}
		// Deep attempts saturate at the cap.
		if d := backoffFor(seed, 60, time.Millisecond, 16*time.Millisecond); d < 8*time.Millisecond || d > 16*time.Millisecond {
			t.Fatalf("capped backoff %v outside [8ms, 16ms]", d)
		}
	}
}

// ---- Extended fault-phase matrix ----

// Every armable fault phase is injectable and recovers bit-identically:
// chunk execution, steal hand-off, combiner fold replay, and each
// segmented-routing sub-phase, alongside the two original phases.
func TestFaultEveryPhaseRecoveryBitIdentical(t *testing.T) {
	const n = 48
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3, ChunkSize: 4}
	labels, st := runMinLabel(t, g, n, base)

	phases := []FaultPhase{
		FaultVertexCompute, FaultRouting, FaultChunkExec, FaultSteal,
		FaultFold, FaultRouteCount, FaultRoutePrefix, FaultRoutePlace,
	}
	for _, p := range phases {
		t.Run(p.String(), func(t *testing.T) {
			faulty := base
			faulty.CheckpointEvery = 2
			faulty.Faults = FaultPlan{{Superstep: 3, Worker: 1, Phase: p}}
			fLabels, fst := runMinLabel(t, g, n, faulty)
			if !reflect.DeepEqual(labels, fLabels) {
				t.Errorf("phase %v: labels differ from fault-free run", p)
			}
			if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
				t.Errorf("phase %v: stats differ:\nfault-free: %+v\nfaulty:     %+v", p, a, b)
			}
			if fst.Recoveries != 1 {
				t.Errorf("phase %v: Recoveries = %d, want 1", p, fst.Recoveries)
			}
			// Checkpoint at 2, crash at 3: supersteps 2..3 re-executed.
			if fst.RecoveredSupersteps != 2 {
				t.Errorf("phase %v: RecoveredSupersteps = %d, want 2", p, fst.RecoveredSupersteps)
			}
		})
	}
}

// The fold fault fires on the real mid-replay path (not just the
// phase-end fallback) when the job combines through the raw-log fold,
// and the replay reproduces the post-combine Stats contract exactly.
func TestFaultFoldMidReplayRecovers(t *testing.T) {
	const n, steps, workers = 40, 6, 4
	g := gen.Ring(n)
	// ChunkSize 4 forces the raw-log + fold combiner path.
	base := Config{NumWorkers: workers, Seed: 3, ChunkSize: 4}
	j := &perfCombJob{steps: steps}
	st, err := Run(g, j, base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{{Superstep: 3, Worker: 2, Phase: FaultFold}}
	fst, err := Run(g, &perfCombJob{steps: steps}, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("fold-faulted stats differ:\nclean:  %+v\nfaulty: %+v", a, b)
	}
	if fst.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
	}
	if want := int64(steps * workers); fst.MessagesSent != want {
		t.Errorf("MessagesSent = %d, want %d (post-combine, no replay double-count)", fst.MessagesSent, want)
	}
}

// ---- Codec v3 integrity frame ----

// A bit flip anywhere in a checkpoint is caught by the payload checksum
// before any field is decoded into engine state.
func TestCheckpointChecksumDetectsCorruption(t *testing.T) {
	const n = 30
	g := gen.Ring(n)
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 4, TraceSteps: true, CheckpointEvery: 1}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	e.cfg.MaxSupersteps = 5
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error to stop mid-run, got nil")
	}
	data := e.encodeState()
	for _, pos := range []int{frameHeaderBytes, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x01
		err := e.decodeState(bad)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("flip at %d: err = %v, want checksum mismatch", pos, err)
		}
	}
	// A tampered length field is rejected as truncation or checksum
	// damage, never decoded.
	bad := append([]byte(nil), data...)
	bad[1] ^= 0x01
	if err := e.decodeState(bad); err == nil {
		t.Errorf("tampered length field decoded successfully")
	}
	// The engine remains usable: the pristine snapshot still decodes.
	if err := e.decodeState(data); err != nil {
		t.Fatalf("pristine snapshot rejected after corrupt decodes: %v", err)
	}
}

// A crash during a checkpoint write (torn snapshot) is detected by the
// integrity frame at the next rollback, which falls back to the
// previous checkpoint and replays bit-identically.
func TestCheckpointWriteCrashFallsBackToPrevious(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{
		{Superstep: 2, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 3, Worker: 1, Phase: FaultVertexCompute},
	}
	fLabels, fst := runMinLabel(t, g, n, faulty)

	if !reflect.DeepEqual(labels, fLabels) {
		t.Errorf("torn-checkpoint labels differ from fault-free run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("torn-checkpoint stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
	}
	if fst.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
	}
	// The snapshot at superstep 2 is torn, so the crash at 3 must fall
	// back to the checkpoint at 0: supersteps 0..3 re-executed.
	if fst.RecoveredSupersteps != 4 {
		t.Errorf("RecoveredSupersteps = %d, want 4 (fallback to checkpoint 0)", fst.RecoveredSupersteps)
	}
}

// A torn snapshot with no earlier valid checkpoint is a clean,
// diagnosable error — not a decode of corrupt state.
func TestCheckpointTornWithoutFallbackFailsCleanly(t *testing.T) {
	const n = 48
	g := gen.Ring(n)
	cfg := Config{NumWorkers: 4, Seed: 3, Faults: FaultPlan{
		// Tear the very first checkpoint (superstep 0), then crash.
		{Superstep: 0, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 2, Worker: 1, Phase: FaultVertexCompute},
	}}
	j := &minLabelJob{label: make([]int64, n)}
	_, err := Run(g, j, cfg)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want corrupt-checkpoint failure", err)
	}
}

// ---- Abort accounting and races ----

// returningMinLabelJob records the current superstep as the run's return
// value on every master call, making partially merged barrier state
// visible through Stats.ReturnedInt.
type returningMinLabelJob struct {
	minLabelJob
}

func (j *returningMinLabelJob) MasterCompute(mc *MasterContext) {
	mc.ReturnInt(int64(mc.Superstep()))
}

// Regression: an abort raised mid-superstep (recovery budget exhausted
// during a routing crash) must report the semantic counters of the last
// completed barrier, not the partially merged superstep. Before the
// commit-mark fix, Supersteps read 4 and ReturnedInt 3 here.
func TestFaultAbortMidRoutingReportsCommittedStats(t *testing.T) {
	const n = 24
	g := gen.Ring(n)
	j := &returningMinLabelJob{minLabelJob{label: make([]int64, n)}}
	cfg := Config{NumWorkers: 3, Seed: 4, CheckpointEvery: 2, MaxRecoveries: 1, Faults: FaultPlan{
		{Superstep: 3, Worker: 0, Phase: FaultRouting},
		{Superstep: 3, Worker: 0, Phase: FaultRouting},
	}}
	st, err := Run(g, j, cfg)
	if err == nil {
		t.Fatal("want recovery-budget error, got nil")
	}
	// Supersteps 0..2 completed their barriers; the twice-crashed
	// superstep 3 never did.
	if st.Supersteps != 3 {
		t.Errorf("Supersteps = %d, want 3 (last completed barrier)", st.Supersteps)
	}
	if !st.ReturnedIsSet || !st.ReturnedIsInt || st.ReturnedInt != 2 {
		t.Errorf("Returned = (set=%v int=%v %d), want int 2 (master call of the last committed superstep)",
			st.ReturnedIsSet, st.ReturnedIsInt, st.ReturnedInt)
	}
}

// Recovery racing cooperative cancellation: repeated crashes with a
// concurrently canceled context must always end in either a clean
// finish or a cancellation error, with barrier-consistent Stats
// (Supersteps always equals the number of committed Steps entries).
// Runs with 7 workers under -race as the scheduler-stress gate.
func TestRecoveryRacingContextCancelKeepsStatsConsistent(t *testing.T) {
	const n = 64
	g := gen.Ring(n)
	for i := 0; i < 8; i++ {
		j := &minLabelJob{label: make([]int64, n)}
		cfg := Config{NumWorkers: 7, Seed: int64(i + 1), TraceSteps: true,
			CheckpointEvery: 1, MaxRecoveries: 64}
		for s := 1; s < 20; s++ {
			cfg.Faults = append(cfg.Faults, Fault{Superstep: s, Worker: s, Phase: FaultPhase(s % 2)})
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i) * 500 * time.Microsecond)
		st, err := RunContext(ctx, g, j, cfg)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want nil or context.Canceled", i, err)
		}
		if st.Supersteps != len(st.Steps) {
			t.Errorf("run %d: Supersteps = %d but %d committed Steps entries", i, st.Supersteps, len(st.Steps))
		}
	}
}

// ---- Zero-allocation contract ----

// A warm governed superstep — vertex phase, routing, watchdog
// arm/disarm, and both govern points — must allocate nothing when the
// budget fits: enabling the robustness layer does not perturb the
// engine's steady-state allocation contract.
func TestGovernedWatchdogSuperstepZeroAlloc(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	j := newPerfRankJob(n, 1<<20)
	cfg := Config{NumWorkers: 4, Seed: 1, MemoryBudget: 1 << 40, Watchdog: true}
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	step := 0
	var governErr error
	cycle := func() {
		e.wd.beginStep(step)
		e.runVertexPhase(step)
		e.routeMessages()
		if e.wd.endStep() {
			governErr = errors.New("watchdog tripped on a healthy superstep")
		}
		if err := e.govern(step); err != nil {
			governErr = err
		}
		step++
	}
	for i := 0; i < 3; i++ {
		cycle() // reach high-water inbox/outbox capacity
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Fatalf("governed warm superstep allocates %v per run, want 0", a)
	}
	if governErr != nil {
		t.Fatal(governErr)
	}
	if e.stats.MemoryPeakBytes == 0 {
		t.Errorf("governor never measured a peak")
	}
}
