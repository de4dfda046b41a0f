package pregel

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/obs"
)

// workerCounts is the NumWorkers grid the determinism satellite sweeps.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// aggDetJob contributes to an AggAny, AggMin, and AggMax slot each
// superstep and records the merged values the master observes.
type aggDetJob struct {
	steps    int
	Observed [][3]int64 // per superstep: any, min, max(bits of float)
}

func (j *aggDetJob) Schema() Schema {
	return Schema{Aggregators: []AggSpec{
		{Name: "any", Kind: AggKindInt, Op: AggAny},
		{Name: "min", Kind: AggKindInt, Op: AggMin},
		{Name: "max", Kind: AggKindFloat, Op: AggMax},
	}}
}

func (j *aggDetJob) MasterCompute(mc *MasterContext) {
	if s := mc.Superstep(); s > 0 {
		j.Observed = append(j.Observed, [3]int64{
			mc.AggInt(0), mc.AggInt(1), int64(floatBits(mc.AggFloat(2))),
		})
		if s >= j.steps {
			mc.Halt()
		}
	}
}

func (j *aggDetJob) VertexCompute(vc *VertexContext) {
	v := int64(vc.ID())
	vc.AggInt(0, v*31+int64(vc.Superstep()))
	vc.AggInt(1, v-7)
	vc.AggFloat(2, float64(v)*1.5)
}

// For each worker count: two identical runs produce identical Stats and
// identical merged aggregator sequences. Across worker counts, the
// partition-invariant reductions (AggMin/AggMax) agree; AggAny is only
// required to be deterministic per configuration (its winner depends on
// the partitioning by design).
func TestAggregatorReductionDeterminism(t *testing.T) {
	const n, steps = 53, 6
	g := gen.TwitterLike(n, 5, 13)
	run := func(w int) (*aggDetJob, Stats) {
		j := &aggDetJob{steps: steps}
		st, err := Run(g, j, Config{NumWorkers: w, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return j, st
	}
	type outcome struct {
		job *aggDetJob
		st  Stats
	}
	byW := map[int]outcome{}
	for _, w := range workerCounts() {
		a, ast := run(w)
		b, bst := run(w)
		if !reflect.DeepEqual(ast, bst) {
			t.Errorf("W=%d: stats differ across identical runs:\n%+v\n%+v", w, ast, bst)
		}
		if !reflect.DeepEqual(a.Observed, b.Observed) {
			t.Errorf("W=%d: aggregator sequences differ across identical runs", w)
		}
		byW[w] = outcome{a, ast}
	}
	ref := byW[1]
	for _, w := range workerCounts() {
		o := byW[w]
		if len(o.job.Observed) != len(ref.job.Observed) {
			t.Fatalf("W=%d: %d observations, want %d", w, len(o.job.Observed), len(ref.job.Observed))
		}
		for s := range o.job.Observed {
			if o.job.Observed[s][1] != ref.job.Observed[s][1] || o.job.Observed[s][2] != ref.job.Observed[s][2] {
				t.Errorf("W=%d step %d: min/max not partition-invariant: %v vs %v",
					w, s, o.job.Observed[s], ref.job.Observed[s])
			}
		}
		if o.st.Supersteps != ref.st.Supersteps || o.st.MessagesSent != ref.st.MessagesSent ||
			o.st.VertexCalls != ref.st.VertexCalls {
			t.Errorf("W=%d: semantic counters differ from W=1: %+v vs %+v", w, o.st, ref.st)
		}
	}
}

// routeMessages inbox ordering: per worker count the received payload
// sequence is identical across runs, and across worker counts the
// multiset of delivered messages is invariant.
func TestInboxOrderDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = 47
	g := gen.TwitterLike(n, 6, 19)
	run := func(w int) [][]int64 {
		j := &orderAllJob{order: make([][]int64, n)}
		if _, err := Run(g, j, Config{NumWorkers: w, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		return j.order
	}
	var ref [][]int64
	for _, w := range workerCounts() {
		a, b := run(w), run(w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("W=%d: inbox order differs across identical runs", w)
		}
		sorted := make([][]int64, n)
		for v := range a {
			s := append([]int64(nil), a[v]...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			sorted[v] = s
		}
		if ref == nil {
			ref = sorted
		} else if !reflect.DeepEqual(ref, sorted) {
			t.Errorf("W=%d: delivered message multiset not partition-invariant", w)
		}
	}
}

// Vertex outputs of a partition-independent job (min-label) are
// bit-identical across the full worker grid.
func TestVertexOutputsInvariantAcrossWorkerCounts(t *testing.T) {
	const n = 80
	g := gen.TwitterLike(n, 5, 23)
	var ref []int64
	for _, w := range workerCounts() {
		labels, _ := runMinLabel(t, g, n, Config{NumWorkers: w, Seed: 8})
		if ref == nil {
			ref = labels
		} else if !reflect.DeepEqual(ref, labels) {
			t.Errorf("W=%d: min-label outputs differ from W=1", w)
		}
	}
}

// The tentpole determinism criterion: for a fixed worker count, Stats
// and outputs are bit-identical across chunk sizes {1, 16, 64} —
// chunked execution and work stealing are pure scheduling changes. (The jobs here use int and float-min/max
// aggregators; float AggSum is the one reduction whose bits may vary
// with chunk geometry, documented in docs/ENGINE.md.)
func TestSchedulingDeterminism(t *testing.T) {
	const n, steps = 53, 6
	g := gen.TwitterLike(n, 5, 13)
	chunks := []int{0, 1, 16, 64}
	var labelRef []int64 // across worker counts too
	for _, w := range workerCounts() {
		var refStats *Stats
		var refObs [][3]int64
		var refLabels []int64
		for _, chunk := range chunks {
			cfg := Config{NumWorkers: w, Seed: 21, TraceSteps: true, ChunkSize: chunk}
			j := &aggDetJob{steps: steps}
			st, err := Run(g, j, cfg)
			if err != nil {
				t.Fatal(err)
			}
			labels, lst := runMinLabel(t, g, n, cfg)
			if refStats == nil {
				refStats, refObs, refLabels = &st, j.Observed, labels
				_ = lst
				continue
			}
			if !reflect.DeepEqual(st, *refStats) {
				t.Errorf("W=%d chunk=%d: Stats differ from default schedule:\n%+v\n%+v",
					w, chunk, st, *refStats)
			}
			if !reflect.DeepEqual(j.Observed, refObs) {
				t.Errorf("W=%d chunk=%d: aggregator sequences differ from default schedule",
					w, chunk)
			}
			if !reflect.DeepEqual(labels, refLabels) {
				t.Errorf("W=%d chunk=%d: min-label outputs differ from default schedule",
					w, chunk)
			}
		}
		if labelRef == nil {
			labelRef = refLabels
		} else if !reflect.DeepEqual(labelRef, refLabels) {
			t.Errorf("W=%d: min-label outputs differ across worker counts", w)
		}
	}
}

// Crash-recovery replay stays bit-identical under the chunked, stealing
// scheduler: the mid-phase crash leaves partially-executed chunks
// behind, and rollback must fully rebuild chunk state from the
// checkpoint.
func TestFaultRecoveryBitIdenticalChunked(t *testing.T) {
	const n = 60
	g := gen.TwitterLike(n, 4, 11)
	base := Config{NumWorkers: 4, Seed: 3, TraceSteps: true, ChunkSize: 16}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 3
	faulty.Faults = FaultPlan{
		{Superstep: 2, Worker: 1},
		{Superstep: 4, Worker: 3},
	}
	fLabels, fst := runMinLabel(t, g, n, faulty)
	if !reflect.DeepEqual(labels, fLabels) {
		t.Error("fault-injected labels differ from fault-free chunked run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("fault-injected stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
	}
	if fst.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2", fst.Recoveries)
	}
}

// orderAllJob records every vertex's received payloads in arrival order
// for two message waves.
type orderAllJob struct {
	order [][]int64
}

func (j *orderAllJob) Schema() Schema { return Schema{MessagePayloadBytes: []int{8}} }
func (j *orderAllJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 3 {
		mc.Halt()
	}
}
func (j *orderAllJob) VertexCompute(vc *VertexContext) {
	msgs := vc.Messages()
	for i := range msgs.Len() {
		j.order[vc.ID()] = append(j.order[vc.ID()], msgs.Int(i, 0))
	}
	if vc.Superstep() < 2 {
		var m Msg
		m.SetInt(0, int64(vc.ID())*100+int64(vc.Superstep()))
		vc.SendToAllNbrs(m)
	}
}

// bfsLevelJob is a level-synchronous BFS from root: a single-vertex
// frontier that swells and collapses, the frontier shape a
// direction-switching engine would treat differently from a dense one.
type bfsLevelJob struct {
	root  graph.NodeID
	level []int64
}

func (j *bfsLevelJob) Schema() Schema                  { return Schema{MessagePayloadBytes: []int{0}} }
func (j *bfsLevelJob) MasterCompute(mc *MasterContext) {}
func (j *bfsLevelJob) VertexCompute(vc *VertexContext) {
	v := vc.ID()
	if vc.Superstep() == 0 {
		j.level[v] = -1
		if v == j.root {
			j.level[v] = 0
			vc.SendToAllNbrs(Msg{})
		}
	} else if j.level[v] < 0 && vc.Messages().Len() > 0 {
		j.level[v] = int64(vc.Superstep())
		vc.SendToAllNbrs(Msg{})
	}
	vc.VoteToHalt()
}

// seqBFSLevels is the sequential reference for bfsLevelJob.
func seqBFSLevels(g *graph.Directed, root graph.NodeID) []int64 {
	level := make([]int64, g.NumNodes())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	for queue := []graph.NodeID{root}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, w := range g.OutNbrs(u) {
			if level[w] < 0 {
				level[w] = level[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

// TestDirectionStatsBitIdentity pins the engine's single superstep
// direction on a swelling-and-collapsing BFS frontier: every superstep
// takes the push path (no pull-phase span is ever emitted), levels
// match a sequential BFS, and Stats (including the per-step trace) are
// bit-identical to the default schedule's for the same worker count,
// across chunk sizes. Subtest names keep their steal/partitioner
// suffixes so results stay comparable with earlier runs: every run
// steals and uses mod partitioning (part0).
func TestDirectionStatsBitIdentity(t *testing.T) {
	g := gen.TwitterLike(300, 6, 1)
	want := seqBFSLevels(g, 0)
	run := func(t *testing.T, cfg Config) ([]int64, Stats) {
		t.Helper()
		ring := obs.NewRing(1 << 16)
		cfg.Observer = ring
		j := &bfsLevelJob{root: 0, level: make([]int64, g.NumNodes())}
		st, err := Run(g, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Dropped() != 0 {
			t.Fatalf("ring dropped %d spans; raise capacity", ring.Dropped())
		}
		for _, s := range ring.Spans() {
			if s.Phase == obs.PhasePull {
				t.Fatalf("engine emitted a %s span at superstep %d", s.Phase, s.Superstep)
			}
		}
		return j.level, st
	}
	for _, workers := range []int{1, 2, 7} {
		for _, chunk := range []int{1, 64} {
			base := Config{NumWorkers: workers, Seed: 9, TraceSteps: true}
			t.Run(fmt.Sprintf("w%d-c%d-stealtrue-part0", workers, chunk), func(t *testing.T) {
				refLvl, refSt := run(t, base)
				cfg := base
				cfg.ChunkSize = chunk
				lvl, st := run(t, cfg)
				if !reflect.DeepEqual(want, lvl) {
					t.Error("levels differ from sequential BFS")
				}
				if !reflect.DeepEqual(refLvl, lvl) {
					t.Error("levels differ from default schedule")
				}
				if !reflect.DeepEqual(refSt, st) {
					t.Errorf("stats differ from default schedule:\ndefault: %+v\ngot:     %+v", refSt, st)
				}
			})
		}
	}
}
