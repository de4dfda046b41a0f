package pregel

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// minLabelJob computes connected components (over out-edges, i.e. label
// propagation on the directed reachability closure) by min-label
// flooding with voteToHalt — a classic single-kernel Pregel program.
type minLabelJob struct {
	label []int64
	mu    sync.Mutex // labels are per-vertex partitioned; no lock needed, kept for -race confidence on test-only reads
}

func (j *minLabelJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}}
}

func (j *minLabelJob) MasterCompute(mc *MasterContext) {}

func (j *minLabelJob) VertexCompute(vc *VertexContext) {
	v := vc.ID()
	if vc.Superstep() == 0 {
		j.label[v] = int64(v)
		var m Msg
		m.SetInt(0, j.label[v])
		vc.SendToAllNbrs(m)
		vc.VoteToHalt()
		return
	}
	changed := false
	msgs := vc.Messages()
	for i := range msgs.Len() {
		if msgs.Int(i, 0) < j.label[v] {
			j.label[v] = msgs.Int(i, 0)
			changed = true
		}
	}
	if changed {
		var m Msg
		m.SetInt(0, j.label[v])
		vc.SendToAllNbrs(m)
	}
	vc.VoteToHalt()
}

// SnapshotState/RestoreState make minLabelJob recoverable, so the fault
// injection tests can reuse it.
func (j *minLabelJob) SnapshotState() []byte {
	b := make([]byte, 8*len(j.label))
	for i, v := range j.label {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

func (j *minLabelJob) RestoreState(b []byte) {
	for i := range j.label {
		j.label[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func TestMinLabelPropagation(t *testing.T) {
	// Two directed cycles: {0,1,2} and {3,4}.
	g := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 3},
	})
	j := &minLabelJob{label: make([]int64, 5)}
	st, err := Run(g, j, Config{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 0, 3, 3}
	for v, w := range want {
		if j.label[v] != w {
			t.Errorf("label[%d] = %d, want %d", v, j.label[v], w)
		}
	}
	if st.Supersteps == 0 || st.MessagesSent == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
}

func TestMinLabelTerminatesByHaltVotes(t *testing.T) {
	g := gen.Ring(50)
	j := &minLabelJob{label: make([]int64, 50)}
	st, err := Run(g, j, Config{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range j.label {
		if j.label[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, j.label[v])
		}
	}
	// Ring of 50 needs ~50 steps for label 0 to go all the way around.
	if st.Supersteps < 50 {
		t.Errorf("supersteps = %d, want >= 50", st.Supersteps)
	}
}

// delayJob checks the BSP delivery contract: a message sent at step t is
// seen exactly at step t+1, never earlier or later.
type delayJob struct {
	t        *testing.T
	sawAt    []int
	haltStep int
}

func (j *delayJob) Schema() Schema { return Schema{MessagePayloadBytes: []int{8}} }
func (j *delayJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.haltStep {
		mc.Halt()
	}
}
func (j *delayJob) VertexCompute(vc *VertexContext) {
	msgs := vc.Messages()
	for i := range msgs.Len() {
		if got := int(msgs.Int(i, 0)); got != vc.Superstep()-1 {
			j.t.Errorf("vertex %d at step %d got message sent at step %d", vc.ID(), vc.Superstep(), got)
		}
		j.sawAt[vc.ID()] = vc.Superstep()
	}
	var m Msg
	m.SetInt(0, int64(vc.Superstep()))
	vc.SendToAllNbrs(m)
}

func TestMessageDeliveryTiming(t *testing.T) {
	g := gen.Ring(6)
	j := &delayJob{t: t, sawAt: make([]int, 6), haltStep: 5}
	if _, err := Run(g, j, Config{NumWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	for v, s := range j.sawAt {
		if s != 4 {
			t.Errorf("vertex %d last received at step %d, want 4", v, s)
		}
	}
}

// aggJob checks aggregator timing (visible to master the NEXT superstep)
// and global broadcast timing (visible to vertices the SAME superstep).
type aggJob struct {
	t       *testing.T
	n       int
	checked bool
}

func (j *aggJob) Schema() Schema {
	return Schema{
		Aggregators: []AggSpec{
			{Name: "sum", Kind: AggKindInt, Op: AggSum},
			{Name: "min", Kind: AggKindFloat, Op: AggMin},
			{Name: "or", Kind: AggKindBool, Op: AggOr},
		},
		Globals: []GlobalSpec{{Name: "k", Size: 8}},
	}
}

func (j *aggJob) MasterCompute(mc *MasterContext) {
	switch mc.Superstep() {
	case 0:
		if mc.AggIsSet(0) {
			j.t.Error("aggregator set before any vertex ran")
		}
		mc.SetGlobalInt(0, 42)
	case 1:
		if got := mc.AggInt(0); got != int64(j.n)*(int64(j.n)-1)/2 {
			j.t.Errorf("sum agg = %d, want %d", got, j.n*(j.n-1)/2)
		}
		if got := mc.AggFloat(1); got != 0.5 {
			j.t.Errorf("min agg = %v, want 0.5", got)
		}
		if !mc.AggBool(2) {
			j.t.Error("or agg should be true")
		}
		j.checked = true
		mc.Halt()
	}
}

func (j *aggJob) VertexCompute(vc *VertexContext) {
	if vc.Superstep() == 0 {
		if vc.GlobalInt(0) != 42 {
			j.t.Errorf("vertex %d did not see global set this superstep", vc.ID())
		}
		vc.AggInt(0, int64(vc.ID()))
		vc.AggFloat(1, 0.5+float64(vc.ID()))
		vc.AggBool(2, vc.ID() == 3)
	}
}

func TestAggregatorsAndGlobals(t *testing.T) {
	g := gen.Ring(8)
	j := &aggJob{t: t, n: 8}
	if _, err := Run(g, j, Config{NumWorkers: 3}); err != nil {
		t.Fatal(err)
	}
	if !j.checked {
		t.Fatal("master never reached the checking superstep")
	}
}

// byteJob sends one fixed-size message per vertex to a fixed target so
// network byte accounting is exactly computable.
type byteJob struct{ n int }

func (j *byteJob) Schema() Schema { return Schema{MessagePayloadBytes: []int{12}} }
func (j *byteJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 2 {
		mc.Halt()
	}
}
func (j *byteJob) VertexCompute(vc *VertexContext) {
	if vc.Superstep() == 0 {
		var m Msg
		vc.Send(0, m) // everyone messages vertex 0
	}
}

func TestNetworkByteAccounting(t *testing.T) {
	const n, W = 10, 2
	g := gen.Ring(n)
	j := &byteJob{n: n}
	st, err := Run(g, j, Config{NumWorkers: W})
	if err != nil {
		t.Fatal(err)
	}
	if st.MessagesSent != n {
		t.Fatalf("messages = %d, want %d", st.MessagesSent, n)
	}
	// Vertex 0 lives on worker 0. Sources on worker 1 (odd ids: 5 of
	// them) cross the network. One message type → no tag byte.
	// Wire size = 4 (dst) + 12 payload = 16.
	if st.NetworkMsgs != 5 {
		t.Errorf("network msgs = %d, want 5", st.NetworkMsgs)
	}
	if st.NetworkBytes != 5*16 {
		t.Errorf("network bytes = %d, want 80", st.NetworkBytes)
	}
	if st.LocalBytes != 5*16 {
		t.Errorf("local bytes = %d, want 80", st.LocalBytes)
	}
}

// Property: total bytes are additive across worker counts — the same job
// sends the same messages regardless of partitioning, so MessagesSent and
// per-message sizes are invariant, while NetworkBytes+LocalBytes is
// constant.
func TestByteAccountingPartitionInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.Random(40, 200, seed%1000)
		var totals []int64
		var msgs []int64
		for _, w := range []int{1, 2, 5} {
			j := &minLabelJob{label: make([]int64, 40)}
			st, err := Run(g, j, Config{NumWorkers: w})
			if err != nil {
				return false
			}
			totals = append(totals, st.NetworkBytes+st.LocalBytes)
			msgs = append(msgs, st.MessagesSent)
		}
		return totals[0] == totals[1] && totals[1] == totals[2] &&
			msgs[0] == msgs[1] && msgs[1] == msgs[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Determinism: identical config+seed ⇒ identical stats.
func TestRunDeterminism(t *testing.T) {
	g := gen.TwitterLike(500, 5, 3)
	run := func() Stats {
		j := &minLabelJob{label: make([]int64, 500)}
		st, err := Run(g, j, Config{NumWorkers: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Supersteps != b.Supersteps || a.MessagesSent != b.MessagesSent || a.NetworkBytes != b.NetworkBytes {
		t.Errorf("nondeterministic stats: %+v vs %+v", a, b)
	}
}

type panicJob struct{}

func (panicJob) Schema() Schema                  { return Schema{} }
func (panicJob) MasterCompute(mc *MasterContext) {}
func (panicJob) VertexCompute(vc *VertexContext) { panic("boom") }

func TestVertexPanicBecomesError(t *testing.T) {
	if _, err := Run(gen.Ring(4), panicJob{}, Config{NumWorkers: 2}); err == nil {
		t.Fatal("want error from panicking vertex, got nil")
	}
}

type masterPanicJob struct{}

func (masterPanicJob) Schema() Schema                  { return Schema{} }
func (masterPanicJob) MasterCompute(mc *MasterContext) { panic("master boom") }
func (masterPanicJob) VertexCompute(vc *VertexContext) {}

func TestMasterPanicBecomesError(t *testing.T) {
	if _, err := Run(gen.Ring(4), masterPanicJob{}, Config{NumWorkers: 2}); err == nil {
		t.Fatal("want error from panicking master, got nil")
	}
}

// pickJob records PickRandomNode's answer on an arbitrary graph.
type pickJob struct{ picked graph.NodeID }

func (j *pickJob) Schema() Schema { return Schema{} }
func (j *pickJob) MasterCompute(mc *MasterContext) {
	j.picked = mc.PickRandomNode()
	mc.Halt()
}
func (j *pickJob) VertexCompute(vc *VertexContext) {}

func TestPickRandomNodeEmptyGraph(t *testing.T) {
	j := &pickJob{}
	if _, err := Run(graph.FromEdges(0, nil), j, Config{NumWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if j.picked != graph.NilNode {
		t.Errorf("PickRandomNode on empty graph = %d, want NilNode", j.picked)
	}
}

// partialReturnJob records a return value early but never halts, so the
// run aborts on MaxSupersteps.
type partialReturnJob struct{}

func (partialReturnJob) Schema() Schema { return Schema{} }
func (partialReturnJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 0 {
		mc.ReturnInt(42)
	}
}
func (partialReturnJob) VertexCompute(vc *VertexContext) {} // stays active forever

func TestAbortPopulatesPartialReturn(t *testing.T) {
	st, err := Run(gen.Ring(4), partialReturnJob{}, Config{NumWorkers: 2, MaxSupersteps: 5})
	if err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	if !st.ReturnedIsSet || !st.ReturnedIsInt || st.ReturnedInt != 42 {
		t.Errorf("aborted run lost the partial return value: %+v", st)
	}
	if st.Supersteps == 0 {
		t.Errorf("aborted run reported no supersteps: %+v", st)
	}
}

type sleepyJob struct{}

func (sleepyJob) Schema() Schema                  { return Schema{} }
func (sleepyJob) MasterCompute(mc *MasterContext) {}
func (sleepyJob) VertexCompute(vc *VertexContext) { time.Sleep(time.Millisecond) }

func TestDeadlineAbortsRun(t *testing.T) {
	st, err := Run(gen.Ring(4), sleepyJob{}, Config{NumWorkers: 2, Deadline: 30 * time.Millisecond})
	if err == nil {
		t.Fatal("want deadline error, got nil")
	}
	if st.Supersteps == 0 {
		t.Error("deadline fired before any superstep completed")
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, gen.Ring(4), sleepyJob{}, Config{NumWorkers: 2}); err == nil {
		t.Fatal("want cancellation error, got nil")
	}
}

type runawayJob struct{}

func (runawayJob) Schema() Schema                  { return Schema{} }
func (runawayJob) MasterCompute(mc *MasterContext) {}
func (runawayJob) VertexCompute(vc *VertexContext) {} // stays active forever

func TestMaxSuperstepsEnforced(t *testing.T) {
	if _, err := Run(gen.Ring(4), runawayJob{}, Config{NumWorkers: 1, MaxSupersteps: 10}); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
}

type returnJob struct{}

func (returnJob) Schema() Schema { return Schema{} }
func (returnJob) MasterCompute(mc *MasterContext) {
	mc.ReturnFloat(3.5)
	mc.Halt()
}
func (returnJob) VertexCompute(vc *VertexContext) {}

func TestReturnValue(t *testing.T) {
	st, err := Run(gen.Ring(4), returnJob{}, Config{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.ReturnedIsSet || st.ReturnedIsInt || st.ReturnedFloat != 3.5 {
		t.Errorf("return value wrong: %+v", st)
	}
}

func TestMsgPayloadCodecs(t *testing.T) {
	var m Msg
	m.SetInt(0, -9)
	m.SetFloat(1, 2.25)
	m.SetBool(2, true)
	m.SetNode(3, graph.NodeID(77))
	if m.Int(0) != -9 || m.Float(1) != 2.25 || !m.Bool(2) || m.Node(3) != 77 {
		t.Errorf("codec mismatch: %v %v %v %v", m.Int(0), m.Float(1), m.Bool(2), m.Node(3))
	}
	m.SetNode(0, graph.NilNode)
	if m.Node(0) != graph.NilNode {
		t.Errorf("NIL node did not round-trip: %d", m.Node(0))
	}
}

func TestTraceSteps(t *testing.T) {
	g := gen.Ring(6)
	j := &delayJob{t: t, sawAt: make([]int, 6), haltStep: 3}
	st, err := Run(g, j, Config{NumWorkers: 2, TraceSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Steps) != st.Supersteps {
		t.Fatalf("len(Steps) = %d, want %d", len(st.Steps), st.Supersteps)
	}
	var sum int64
	for _, s := range st.Steps {
		sum += s.Messages
	}
	if sum != st.MessagesSent {
		t.Errorf("per-step messages sum %d != total %d", sum, st.MessagesSent)
	}
}
