package chaos

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gmpregel/internal/graph/gen"
	"gmpregel/internal/pregel"
)

// rankJob is a PageRank-shaped recoverable job: every vertex sums its
// float messages and re-broadcasts to all out-neighbors for a fixed
// number of supersteps. Float state snapshots bit-exactly, so recovery
// bit-identity is meaningful.
type rankJob struct {
	rank  []float64
	steps int
}

func (j *rankJob) Schema() pregel.Schema {
	return pregel.Schema{MessagePayloadBytes: []int{8}}
}

func (j *rankJob) MasterCompute(mc *pregel.MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *rankJob) VertexCompute(vc *pregel.VertexContext) {
	sum := 0.0
	msgs := vc.Messages()
	for i := range msgs.Len() {
		sum += msgs.Float(i, 0)
	}
	id := int(vc.ID())
	j.rank[id] = 0.15/float64(len(j.rank)) + 0.85*sum
	if d := vc.OutDegree(); d > 0 {
		var m pregel.Msg
		m.SetFloat(0, j.rank[id]/float64(d))
		vc.SendToAllNbrs(m)
	}
}

func (j *rankJob) SnapshotState() []byte {
	b := make([]byte, 8*len(j.rank))
	for i, v := range j.rank {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func (j *rankJob) RestoreState(b []byte) {
	for i := range j.rank {
		j.rank[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// The generator is a pure function of its inputs, and any nine
// consecutive schedules cover every armable fault phase.
func TestGenerateDeterministicAndPhaseComplete(t *testing.T) {
	a := Generate(42, 18, 9)
	b := Generate(42, 18, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	if len(a) != 18 {
		t.Fatalf("got %d schedules, want 18", len(a))
	}
	seen := map[string]bool{}
	for _, s := range a[:len(armablePhases)] {
		seen[s.Faults[0].Phase.String()] = true
	}
	for _, p := range armablePhases {
		if !seen[p.String()] {
			t.Errorf("phase %v missing from the primary-fault cycle", p)
		}
	}
	var stalls, budgets int
	for _, s := range a {
		if len(s.Stalls) > 0 {
			stalls++
			if s.StepDeadline <= 0 {
				t.Errorf("schedule %d stalls without a StepDeadline", s.ID)
			}
		}
		if s.BudgetFrac > 0 {
			budgets++
		}
	}
	if stalls == 0 || budgets == 0 {
		t.Errorf("pressure dimensions missing: stalls=%d budgets=%d", stalls, budgets)
	}
}

// The acceptance-criteria core: a full seeded schedule matrix — every
// fault phase, composed with stalls and budget pressure — recovers to
// bit-identical vertex output and semantic Stats across worker counts
// {1, 2, 7, GOMAXPROCS} and chunk sizes {1, 64}.
func TestChaosMatrixBitIdentical(t *testing.T) {
	const n, steps, numSchedules = 180, 8, 18
	g := gen.TwitterLike(n, 4, 3)
	workers := []int{1, 2, 7}
	if p := runtime.GOMAXPROCS(0); !testing.Short() && p > 1 && p != 2 && p != 7 {
		workers = append(workers, p)
	}
	chunks := []int{1, 64}
	schedules := Generate(1337, numSchedules, steps)

	for _, w := range workers {
		for _, cs := range chunks {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", w, cs), func(t *testing.T) {
				if testing.Short() && w == 7 && cs == 1 {
					t.Skip("short mode: trimmed matrix cell")
				}
				r := &Runner{
					Base: pregel.Config{NumWorkers: w, Seed: 11, ChunkSize: cs},
					Target: func(cfg pregel.Config) (any, pregel.Stats, error) {
						j := &rankJob{rank: make([]float64, n), steps: steps}
						st, err := pregel.Run(g, j, cfg)
						return j.rank, st, err
					},
				}
				rep, err := r.Run(1337, schedules)
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range rep.Results {
					if !res.Survived || !res.Identical {
						t.Errorf("schedule %d (%s): survived=%v identical=%v err=%q",
							res.ID, res.Label, res.Survived, res.Identical, res.Err)
					}
				}
				if rep.Survived != len(schedules) || rep.Identical != len(schedules) {
					t.Fatalf("survival report: %d/%d survived, %d identical, want %d of each",
						rep.Survived, len(schedules), rep.Identical, len(schedules))
				}
				if rep.Recoveries == 0 {
					t.Errorf("no recoveries across %d fault schedules", len(schedules))
				}
				if rep.WatchdogStalls == 0 {
					t.Errorf("no watchdog trips despite stall schedules")
				}
				if rep.MeanMTTRNS <= 0 {
					t.Errorf("MeanMTTRNS = %d, want > 0 with %d recoveries", rep.MeanMTTRNS, rep.Recoveries)
				}
			})
		}
	}
}

// Budget-pressured schedules either spill or degrade within the
// governor's staged contract, and a budget below the spill floor ends
// in a clean documented abort that the runner retries — never an OOM.
func TestChaosBudgetPressureGoverned(t *testing.T) {
	const n, steps = 180, 8
	g := gen.TwitterLike(n, 4, 3)
	schedules := Generate(7, 18, steps)
	r := &Runner{
		Base: pregel.Config{NumWorkers: 4, Seed: 11},
		Target: func(cfg pregel.Config) (any, pregel.Stats, error) {
			j := &rankJob{rank: make([]float64, n), steps: steps}
			st, err := pregel.Run(g, j, cfg)
			return j.rank, st, err
		},
	}
	rep, err := r.Run(7, schedules)
	if err != nil {
		t.Fatal(err)
	}
	var pressured int
	for _, res := range rep.Results {
		if res.Budget > 0 {
			pressured++
			if !res.Survived || !res.Identical {
				t.Errorf("budgeted schedule %d (%s): survived=%v identical=%v err=%q",
					res.ID, res.Label, res.Survived, res.Identical, res.Err)
			}
		}
	}
	if pressured == 0 {
		t.Fatal("no budget-pressured schedules in the campaign")
	}
}
