package pregel

import (
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// controlJob exercises global broadcast and aggregator control-byte
// accounting with declared sizes.
type controlJob struct{ steps int }

func (j *controlJob) Schema() Schema {
	return Schema{
		Aggregators: []AggSpec{{Name: "a", Kind: AggKindInt, Op: AggSum}},
		Globals:     []GlobalSpec{{Name: "g4", Size: 4}, {Name: "g8", Size: 8}},
	}
}
func (j *controlJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
		return
	}
	mc.SetGlobalInt(0, int64(mc.Superstep()))
	mc.SetGlobalFloat(1, 0.5)
}
func (j *controlJob) VertexCompute(vc *VertexContext) {
	vc.AggInt(0, 1)
}

func TestControlByteAccounting(t *testing.T) {
	const W = 3
	g := gen.Ring(9)
	st, err := Run(g, &controlJob{steps: 4}, Config{NumWorkers: W})
	if err != nil {
		t.Fatal(err)
	}
	// Per superstep: broadcasts 4+8 bytes to W-1 workers; the aggregator
	// contributes 8 bytes from W-1 workers.
	perStep := int64((4 + 8 + 8) * (W - 1))
	if st.ControlBytes != 4*perStep {
		t.Errorf("control bytes = %d, want %d", st.ControlBytes, 4*perStep)
	}
	if st.NetworkBytes != 0 {
		t.Errorf("no messages were sent, network bytes = %d", st.NetworkBytes)
	}
}

// aggKindsJob covers min/max/and/any aggregator semantics.
type aggKindsJob struct{ t *testing.T }

func (j *aggKindsJob) Schema() Schema {
	return Schema{Aggregators: []AggSpec{
		{Name: "min", Kind: AggKindInt, Op: AggMin},
		{Name: "max", Kind: AggKindFloat, Op: AggMax},
		{Name: "and", Kind: AggKindBool, Op: AggAnd},
		{Name: "any", Kind: AggKindInt, Op: AggAny},
	}}
}
func (j *aggKindsJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 1 {
		if got := mc.AggInt(0); got != 2 {
			j.t.Errorf("min agg = %d, want 2", got)
		}
		if got := mc.AggFloat(1); got != 11.5 {
			j.t.Errorf("max agg = %v, want 11.5", got)
		}
		if mc.AggBool(2) {
			j.t.Error("and agg should be false (vertex 3 contributed false)")
		}
		if !mc.AggIsSet(3) {
			j.t.Error("any agg unset")
		}
		mc.Halt()
	}
}
func (j *aggKindsJob) VertexCompute(vc *VertexContext) {
	v := int64(vc.ID())
	vc.AggInt(0, v+2)
	vc.AggFloat(1, float64(v)+1.5)
	vc.AggBool(2, v != 3)
	vc.AggInt(3, v)
}

func TestAggregatorKinds(t *testing.T) {
	g := gen.Ring(11)
	if _, err := Run(g, &aggKindsJob{t: t}, Config{NumWorkers: 4}); err != nil {
		t.Fatal(err)
	}
}

// orderJob records per-vertex message payload order; it must be
// identical across runs (deterministic inbox grouping).
type orderJob struct {
	order [][]int64
}

func (j *orderJob) Schema() Schema { return Schema{MessagePayloadBytes: []int{8}} }
func (j *orderJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 2 {
		mc.Halt()
	}
}
func (j *orderJob) VertexCompute(vc *VertexContext) {
	if vc.Superstep() == 0 {
		var m Msg
		m.SetInt(0, int64(vc.ID()))
		vc.Send(0, m)
		return
	}
	msgs := vc.Messages()
	for i := range msgs.Len() {
		j.order[vc.ID()] = append(j.order[vc.ID()], msgs.Int(i, 0))
	}
}

func TestInboxOrderDeterminism(t *testing.T) {
	g := gen.Ring(17)
	run := func() []int64 {
		j := &orderJob{order: make([][]int64, 17)}
		if _, err := Run(g, j, Config{NumWorkers: 4}); err != nil {
			t.Fatal(err)
		}
		return j.order[0]
	}
	a := run()
	b := run()
	if len(a) != 17 {
		t.Fatalf("vertex 0 received %d messages, want 17", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message order differs at %d: %v vs %v", i, a, b)
		}
	}
	// Grouped in source-worker order: worker index ascending, then id.
	for i := 1; i < len(a); i++ {
		wPrev, wCur := a[i-1]%4, a[i]%4
		if wCur < wPrev {
			t.Fatalf("messages not grouped by source worker: %v", a)
		}
	}
}

// combinerEngineJob tests the engine-level combiner directly.
type combinerEngineJob struct{ sum []int64 }

func (j *combinerEngineJob) Schema() Schema {
	return Schema{
		MessagePayloadBytes: []int{8},
		Combiners: []Combiner{func(into *Msg, m Msg) {
			into.SetInt(0, into.Int(0)+m.Int(0))
		}},
	}
}
func (j *combinerEngineJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 2 {
		mc.Halt()
	}
}
func (j *combinerEngineJob) VertexCompute(vc *VertexContext) {
	switch vc.Superstep() {
	case 0:
		var m Msg
		m.SetInt(0, int64(vc.ID()))
		vc.Send(0, m)
	case 1:
		msgs := vc.Messages()
		for i := range msgs.Len() {
			j.sum[vc.ID()] += msgs.Int(i, 0)
		}
	}
}

func TestEngineCombiner(t *testing.T) {
	const n, W = 12, 3
	g := gen.Ring(n)
	j := &combinerEngineJob{sum: make([]int64, n)}
	st, err := Run(g, j, Config{NumWorkers: W})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); j.sum[0] != want {
		t.Errorf("combined sum = %d, want %d", j.sum[0], want)
	}
	// One combined message per source worker.
	if st.MessagesSent != W {
		t.Errorf("messages = %d, want %d (one per worker)", st.MessagesSent, W)
	}
}

func TestZeroAndTinyGraphs(t *testing.T) {
	// Single vertex, no edges.
	g := graph.FromEdges(1, nil)
	j := &minLabelJob{label: make([]int64, 1)}
	st, err := Run(g, j, Config{NumWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if j.label[0] != 0 || st.Supersteps != 1 {
		t.Errorf("single vertex: label=%v steps=%d", j.label, st.Supersteps)
	}
}

func TestMasterHaltBeforeAnyVertexPhase(t *testing.T) {
	g := gen.Ring(5)
	st, err := Run(g, returnJob{}, Config{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Supersteps != 0 || st.VertexCalls != 0 {
		t.Errorf("immediate halt ran vertices: %+v", st)
	}
}
