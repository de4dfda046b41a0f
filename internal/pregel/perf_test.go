package pregel

// Steady-state performance regression tests for the superstep hot path:
// the persistent worker pool must not spawn goroutines per superstep,
// send and warm routing must not allocate, the arithmetic partition
// indexing must agree with hardware division, and the incremental
// active counters must track the active bitmaps exactly — including
// through crash-recovery.

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// perfRankJob is a PageRank-shaped job defined locally (in-package tests
// cannot import internal/manual): every vertex sums its float messages
// and re-broadcasts to all out-neighbors for a fixed number of
// supersteps. Its compute functions allocate nothing, so any allocation
// observed in a warm superstep belongs to the engine.
type perfRankJob struct {
	rank  []float64
	steps int
}

func newPerfRankJob(n, steps int) *perfRankJob {
	return &perfRankJob{rank: make([]float64, n), steps: steps}
}

func (j *perfRankJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}}
}

func (j *perfRankJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *perfRankJob) VertexCompute(vc *VertexContext) {
	sum := 0.0
	msgs := vc.Messages()
	for i := range msgs.Len() {
		sum += msgs.Float(i, 0)
	}
	id := int(vc.ID())
	j.rank[id] = 0.15/float64(len(j.rank)) + 0.85*sum
	if d := vc.OutDegree(); d > 0 {
		var m Msg
		m.SetFloat(0, j.rank[id]/float64(d))
		vc.SendToAllNbrs(m)
	}
}

// perfCombJob sends one combinable message per vertex to a single sink,
// so post-combine MessagesSent is exactly numWorkers per superstep.
type perfCombJob struct {
	steps int
}

func (j *perfCombJob) Schema() Schema {
	return Schema{
		MessagePayloadBytes: []int{8},
		Combiners: []Combiner{func(into *Msg, m Msg) {
			into.SetFloat(0, into.Float(0)+m.Float(0))
		}},
	}
}

func (j *perfCombJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *perfCombJob) VertexCompute(vc *VertexContext) {
	var m Msg
	m.SetFloat(0, 1)
	vc.Send(0, m)
}

func TestFastDiv(t *testing.T) {
	values := []uint32{0, 1, 2, 3, 6, 7, 8, 100, 1023, 1 << 16, 1<<31 - 1, 1 << 31, ^uint32(0)}
	for d := uint32(1); d <= 64; d++ {
		f := newFastDiv(d)
		for _, x := range values {
			if got, want := f.div(x), x/d; got != want {
				t.Fatalf("fastDiv(%d).div(%d) = %d, want %d", d, x, got, want)
			}
			if got, want := f.mod(x), x%d; got != want {
				t.Fatalf("fastDiv(%d).mod(%d) = %d, want %d", d, x, got, want)
			}
		}
	}
}

// resetOutbound mimics the start of a vertex phase: truncate the
// worker's chunk boxes, raw logs, and combiner outboxes, clearing
// (retaining) the combiner index.
func resetOutbound(wk *worker) {
	for ci := range wk.chunks {
		ck := &wk.chunks[ci]
		for d := range ck.boxes {
			ck.boxes[d].reset()
		}
		ck.raw.reset()
	}
	for d := range wk.outboxes {
		wk.outboxes[d].reset()
	}
	if wk.combineIdx != nil {
		clear(wk.combineIdx)
	}
}

// sendContext wires executor 0's reused VertexContext to worker wk's
// chunk ci, the way runChunk does before invoking vertex compute.
func sendContext(e *engine, wk *worker, ci int) *VertexContext {
	vc := &e.executors[0].vc
	vc.wk = wk
	vc.ck = &wk.chunks[ci]
	vc.id = wk.ids[0]
	vc.local = 0
	return vc
}

// Satellite: send must be allocation-free in steady state, on the plain
// chunk-box path, the single-chunk direct combiner path, and the
// multi-chunk raw-log + fold path.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	const n = 64
	g := gen.Ring(n)
	run := func(t *testing.T, job Job, cfg Config, fold bool) {
		e := newEngine(g, job, cfg.withDefaults())
		defer e.stop()
		wk := e.workers[0]
		var m Msg
		m.SetFloat(0, 1)
		vc := sendContext(e, wk, 0)
		cycle := func() {
			resetOutbound(wk)
			for i := 0; i < n; i++ {
				vc.Send(graph.NodeID(i), m)
			}
			if fold {
				wk.fold()
			}
		}
		cycle() // reach high-water outbox and index capacity
		if a := testing.AllocsPerRun(20, cycle); a != 0 {
			t.Fatalf("steady-state send allocates %v per superstep, want 0", a)
		}
	}
	t.Run("plain", func(t *testing.T) {
		run(t, newPerfRankJob(n, 4), Config{NumWorkers: 4, Seed: 1}, false)
	})
	t.Run("combined-single-chunk", func(t *testing.T) {
		// 16 vertices per worker, default chunking => one chunk: sends fold
		// directly into the worker outboxes.
		run(t, &perfCombJob{steps: 4}, Config{NumWorkers: 4, Seed: 1}, false)
	})
	t.Run("combined-raw-fold", func(t *testing.T) {
		// ChunkSize 4 => multi-chunk worker: sends log raw emissions and
		// the fold replay combines them.
		run(t, &perfCombJob{steps: 4}, Config{NumWorkers: 4, Seed: 1, ChunkSize: 4}, true)
	})
}

// Satellite: a warm superstep — chunked vertex phase plus segmented
// message routing on the persistent pool — must allocate nothing, under
// default chunking and explicit small chunks. This also proves no per-superstep goroutine creation: a spawned goroutine
// costs at least one allocation, and this test demands zero.
func TestWarmRoutingZeroAlloc(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{NumWorkers: 4, Seed: 1}},
		{"chunk16-steal", Config{NumWorkers: 4, Seed: 1, ChunkSize: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newPerfRankJob(n, 1<<20)
			e := newEngine(g, j, tc.cfg.withDefaults())
			defer e.stop()
			step := 0
			cycle := func() {
				e.runVertexPhase(step)
				e.routeMessages()
				step++
			}
			for i := 0; i < 3; i++ {
				cycle() // reach high-water inbox/outbox capacity
			}
			if a := testing.AllocsPerRun(10, cycle); a != 0 {
				t.Fatalf("warm superstep allocates %v per run, want 0", a)
			}
			for _, x := range e.executors {
				if x.err != nil {
					t.Fatalf("executor %d failed: %v", x.id, x.err)
				}
			}
			for _, wk := range e.workers {
				for ci := range wk.chunks {
					if err := wk.chunks[ci].err; err != nil {
						t.Fatalf("worker %d chunk %d failed: %v", wk.index, ci, err)
					}
				}
			}
		})
	}
}

// Satellite: the combiner index map is cleared and retained across
// supersteps (not re-allocated), and a multi-superstep combined run
// keeps the post-combine Stats contract: one message per worker per
// sending superstep, reproducibly — and bit-identically whether sends
// fold directly (single chunk) or through the raw-log replay (chunked),
// because the fold replays the exact emission order.
func TestCombinerIndexRetained(t *testing.T) {
	const n, steps, workers = 40, 6, 4
	g := gen.Ring(n)
	runOnce := func(chunkSize int) (Stats, *engine) {
		j := &perfCombJob{steps: steps}
		cfg := Config{NumWorkers: workers, Seed: 3, ChunkSize: chunkSize}
		e := newEngine(g, j, cfg.withDefaults())
		defer e.stop()
		if err := e.loop(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e.stats, e
	}
	st1, e := runOnce(0)
	st2, _ := runOnce(0)
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("combined-run Stats not reproducible:\n%+v\n%+v", st1, st2)
	}
	// Chunked run (ChunkSize 3 => raw-log + fold path): identical Stats.
	st3, _ := runOnce(3)
	if !reflect.DeepEqual(st1, st3) {
		t.Fatalf("chunked combined-run Stats differ from single-chunk:\n%+v\n%+v", st1, st3)
	}
	// steps sending supersteps, each combining n sends into one message
	// per worker.
	if want := int64(steps * workers); st1.MessagesSent != want {
		t.Fatalf("MessagesSent = %d, want %d (post-combine)", st1.MessagesSent, want)
	}
	for _, wk := range e.workers {
		if wk.combineIdx == nil {
			t.Fatalf("worker %d combiner index was nilled instead of retained", wk.index)
		}
	}
}

// Tentpole: worker goroutines are spawned once per run and shut down on
// every exit path — repeated runs (including failed ones) must not leak.
func TestWorkerPoolLifecycle(t *testing.T) {
	g := gen.Ring(64)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(g, newPerfRankJob(64, 3), Config{NumWorkers: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// An error exit (recovery budget exhausted) must also stop the pool.
	cfg := Config{NumWorkers: 8, Seed: 1, MaxRecoveries: 1, Faults: FaultPlan{
		{Superstep: 1, Worker: 0, Phase: FaultVertexCompute},
		{Superstep: 1, Worker: 0, Phase: FaultVertexCompute},
	}}
	if _, err := Run(g, newPerfRankJob(64, 3), cfg); err == nil {
		t.Fatal("want recovery-budget error, got nil")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	// stop is idempotent: RunContext defers it after loop already exited.
	e := newEngine(g, newPerfRankJob(64, 1), Config{NumWorkers: 2, Seed: 1}.withDefaults())
	e.stop()
	e.stop()
}

// Tentpole: the per-worker numActive counters that replaced the O(V)
// termination scan must track the active bitmaps exactly, including
// after voteToHalt/reactivation churn and through crash-recovery's
// checkpoint decode path.
func TestActiveCounterInvariant(t *testing.T) {
	const n = 60
	g := gen.TwitterLike(n, 4, 6)
	check := func(t *testing.T, e *engine) {
		t.Helper()
		for _, wk := range e.workers {
			count := 0
			for _, a := range wk.active {
				if a {
					count++
				}
			}
			if count != wk.numActive {
				t.Errorf("worker %d: numActive = %d, bitmap has %d", wk.index, wk.numActive, count)
			}
		}
	}
	for _, w := range workerCounts() {
		j := &minLabelJob{label: make([]int64, n)}
		e := newEngine(g, j, Config{NumWorkers: w, Seed: 5}.withDefaults())
		if err := e.loop(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(t, e)
		e.stop()
	}
	// Through recovery: a mid-run crash rolls back via decodeState, which
	// must recompute the counters from the restored bitmap.
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 5, CheckpointEvery: 2, Faults: FaultPlan{
		{Superstep: 3, Worker: 1, Phase: FaultVertexCompute},
	}}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", e.stats.Recoveries)
	}
	check(t, e)
}

// ---- Microbenchmarks (CI runs these with -benchtime 1x as a gate) ----

// BenchmarkSuperstepPageRank measures one warm superstep — vertex phase
// plus routing — of a PageRank-shaped job on the persistent pool.
func BenchmarkSuperstepPageRank(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	j := newPerfRankJob(n, 1<<30)
	e := newEngine(g, j, Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	step := 0
	for i := 0; i < 3; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
}

// BenchmarkRouting measures the routing phase alone: outboxes are
// refilled outside the timer each iteration. The sub-benchmarks vary the
// buffer layout: slots4 leaves MessageSlots nil (every message buffers
// MaxPayloadSlots slots), slots1 declares the one live slot of a
// single-type job, and slots2-tagged two slots and two message types, so
// every message also carries its type tag.
func BenchmarkRouting(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	for _, bc := range []struct {
		name   string
		schema Schema
		types  int
	}{
		{"slots4", Schema{MessagePayloadBytes: []int{8}}, 1},
		{"slots1", Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}}, 1},
		{"slots2-tagged", Schema{MessagePayloadBytes: []int{16, 16}, MessageSlots: []int{2, 2}}, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			j := &schemaJob{Job: newPerfRankJob(n, 1<<30), s: bc.schema}
			e := newEngine(g, j, Config{NumWorkers: 4, Seed: 1}.withDefaults())
			defer e.stop()
			fill := func() {
				var m Msg
				m.SetFloat(0, 1)
				m.SetFloat(1, 2)
				for _, wk := range e.workers {
					resetOutbound(wk)
					vc := sendContext(e, wk, 0)
					for _, v := range wk.ids {
						vc.id = v
						m.Type = uint8(int(v) % bc.types)
						vc.SendToAllNbrs(m)
					}
				}
			}
			fill()
			e.routeMessages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				e.routeMessages()
			}
		})
	}
}

// BenchmarkSendCombined measures the combiner send path: one combinable
// message per vertex funneled to a single sink.
func BenchmarkSendCombined(b *testing.B) {
	const n = 4096
	g := gen.Ring(n)
	e := newEngine(g, &perfCombJob{steps: 1 << 30}, Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	wk := e.workers[0]
	var m Msg
	m.SetFloat(0, 1)
	vc := sendContext(e, wk, 0)
	cycle := func() {
		resetOutbound(wk)
		for i := 0; i < n; i++ {
			vc.Send(graph.NodeID(i), m)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
