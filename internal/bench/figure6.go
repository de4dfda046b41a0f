package bench

import (
	"fmt"
	"io"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// Params are the algorithm parameters used throughout the evaluation.
type Params struct {
	AvgTeenK   int64
	PRBeps     float64
	PRDamping  float64
	PRMaxIter  int
	ConductNum int64
	BCSamples  int64
}

// DefaultParams mirror the paper's setups (ε and damping from the
// PageRank literature; K and num arbitrary but fixed).
func DefaultParams() Params {
	return Params{
		AvgTeenK:   40,
		PRBeps:     1e-4,
		PRDamping:  0.85,
		PRMaxIter:  20,
		ConductNum: 1,
		BCSamples:  4,
	}
}

// Outcome is one measured run. NsPerSuperstep divides the best trial's
// wall time by the superstep count; AllocsPerSuperstep divides the best
// trial's heap-allocation count the same way (per-run setup included,
// so it bounds — and in steady state approaches — the engine's
// per-superstep allocation bill, which PR 4 drove to zero).
type Outcome struct {
	Elapsed            time.Duration
	Stats              pregel.Stats
	NsPerSuperstep     int64   `json:"ns_per_superstep"`
	AllocsPerSuperstep float64 `json:"allocs_per_superstep"`
}

// newOutcome derives the per-superstep rates from one measured run.
func newOutcome(d time.Duration, allocs uint64, st pregel.Stats) Outcome {
	o := Outcome{Elapsed: d, Stats: st}
	if st.Supersteps > 0 {
		o.NsPerSuperstep = d.Nanoseconds() / int64(st.Supersteps)
		o.AllocsPerSuperstep = float64(allocs) / float64(st.Supersteps)
	}
	return o
}

// RunGenerated compiles (or reuses) the named algorithm and executes the
// generated Pregel program on g.
func RunGenerated(name string, g *graph.Directed, in *Inputs, p Params, cfg pregel.Config, trials int) (Outcome, error) {
	c, err := CompiledProgram(name)
	if err != nil {
		return Outcome{}, err
	}
	b := bindingsFor(name, in, p)
	var last *machine.Result
	d, allocs, err := timeAndAllocRun(trials, func() error {
		res, err := machine.Run(c.Program, g, b, cfg)
		if err != nil {
			return err
		}
		last = res
		return nil
	})
	if err != nil {
		return Outcome{}, err
	}
	return newOutcome(d, allocs, last.Stats), nil
}

var compiledCache = map[string]*core.Compiled{}

// CompiledProgram compiles the named paper algorithm once and caches it.
func CompiledProgram(name string) (*core.Compiled, error) {
	if c, ok := compiledCache[name]; ok {
		return c, nil
	}
	src, ok := algorithms.ByName[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown algorithm %q", name)
	}
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		return nil, err
	}
	compiledCache[name] = c
	return c, nil
}

func bindingsFor(name string, in *Inputs, p Params) machine.Bindings {
	switch name {
	case "avgteen":
		return machine.Bindings{
			Int:         map[string]int64{"K": p.AvgTeenK},
			NodePropInt: map[string][]int64{"age": in.Age},
		}
	case "pagerank":
		return machine.Bindings{
			Float: map[string]float64{"e": p.PRBeps, "d": p.PRDamping},
			Int:   map[string]int64{"max_iter": int64(p.PRMaxIter)},
		}
	case "conductance":
		return machine.Bindings{
			Int:         map[string]int64{"num": p.ConductNum},
			NodePropInt: map[string][]int64{"member": in.Member},
		}
	case "sssp":
		return machine.Bindings{
			Node:        map[string]graph.NodeID{"root": in.Root},
			EdgePropInt: map[string][]int64{"len": in.EdgeLen},
		}
	case "bipartite":
		return machine.Bindings{
			NodePropBool: map[string][]bool{"is_boy": in.IsBoy},
		}
	case "bc":
		return machine.Bindings{
			Int: map[string]int64{"K": p.BCSamples},
		}
	}
	return machine.Bindings{}
}

// RunManual executes the hand-written Pregel baseline for the named
// algorithm.
func RunManual(name string, g *graph.Directed, in *Inputs, p Params, cfg pregel.Config, trials int) (Outcome, error) {
	n := g.NumNodes()
	var newJob func() pregel.Job
	switch name {
	case "avgteen":
		newJob = func() pregel.Job {
			return &manual.AvgTeen{K: p.AvgTeenK, Age: in.Age, TeenCnt: make([]int64, n)}
		}
	case "pagerank":
		newJob = func() pregel.Job {
			return &manual.PageRank{Eps: p.PRBeps, D: p.PRDamping, MaxIter: p.PRMaxIter, PR: make([]float64, n)}
		}
	case "conductance":
		newJob = func() pregel.Job {
			return &manual.Conductance{Num: p.ConductNum, Member: in.Member}
		}
	case "sssp":
		newJob = func() pregel.Job {
			return &manual.SSSP{Root: in.Root, Len: in.EdgeLen, Dist: make([]int64, n)}
		}
	case "bipartite":
		newJob = func() pregel.Job {
			return &manual.Bipartite{IsBoy: in.IsBoy, Match: make([]graph.NodeID, n)}
		}
	default:
		return Outcome{}, fmt.Errorf("bench: no manual implementation of %q (the paper has none either)", name)
	}
	var last pregel.Stats
	d, allocs, err := timeAndAllocRun(trials, func() error {
		st, err := pregel.Run(g, newJob(), cfg)
		if err != nil {
			return err
		}
		last = st
		return nil
	})
	if err != nil {
		return Outcome{}, err
	}
	return newOutcome(d, allocs, last), nil
}

// Fig6Row is one bar of Figure 6 plus the §5.2 timestep / network-I/O
// comparison columns.
type Fig6Row struct {
	Algorithm  string
	Graph      string
	Manual     Outcome
	Generated  Outcome
	Normalized float64 // generated time / manual time
}

// Fig6Pairs lists the (algorithm, graph) pairs evaluated, mirroring the
// paper: every algorithm on the Twitter-like and web graphs, bipartite
// matching on the bipartite graph.
func Fig6Pairs() [][2]string {
	return [][2]string{
		{"avgteen", "twitter"}, {"avgteen", "sk2005"},
		{"pagerank", "twitter"}, {"pagerank", "sk2005"},
		{"conductance", "twitter"}, {"conductance", "sk2005"},
		{"sssp", "twitter"}, {"sssp", "sk2005"},
		{"bipartite", "bipartite"},
	}
}

// Figure6 runs every pair and writes the figure's data table.
func Figure6(w io.Writer, scale, workers, trials int, seed int64) ([]Fig6Row, error) {
	p := DefaultParams()
	cfg := engineConfig(workers, seed)
	var rows []Fig6Row
	graphs := map[string]*graph.Directed{}
	inputs := map[string]*Inputs{}
	for _, spec := range Graphs() {
		g := spec.Build(scale)
		graphs[spec.Name] = g
		boys := 0
		if spec.BipartiteBoys != nil {
			boys = spec.BipartiteBoys(scale)
		}
		inputs[spec.Name] = MakeInputs(g, boys, seed+7)
	}
	fmt.Fprintf(w, "Figure 6: runtime of compiler-generated Pregel programs, normalized to manual implementations\n")
	fmt.Fprintf(w, "%-12s %-10s %12s %12s %6s | %9s %9s | %14s %14s\n",
		"algorithm", "graph", "manual", "generated", "norm", "steps(m)", "steps(g)", "netbytes(m)", "netbytes(g)")
	for _, pair := range Fig6Pairs() {
		algo, gname := pair[0], pair[1]
		g := graphs[gname]
		in := inputs[gname]
		man, err := RunManual(algo, g, in, p, cfg, trials)
		if err != nil {
			return nil, fmt.Errorf("%s/%s manual: %v", algo, gname, err)
		}
		genOut, err := RunGenerated(algo, g, in, p, cfg, trials)
		if err != nil {
			return nil, fmt.Errorf("%s/%s generated: %v", algo, gname, err)
		}
		row := Fig6Row{
			Algorithm: algo, Graph: gname, Manual: man, Generated: genOut,
			Normalized: float64(genOut.Elapsed) / float64(man.Elapsed),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-12s %-10s %12s %12s %6.2f | %9d %9d | %14d %14d\n",
			algo, gname, man.Elapsed.Round(time.Microsecond), genOut.Elapsed.Round(time.Microsecond),
			row.Normalized, man.Stats.Supersteps, genOut.Stats.Supersteps,
			man.Stats.NetworkBytes, genOut.Stats.NetworkBytes)
	}
	return rows, nil
}

// runOnce executes a compiled program once and returns the full result
// (used by tests that inspect output properties).
func runOnce(c *core.Compiled, g *graph.Directed, in *Inputs, p Params, cfg pregel.Config) (*machine.Result, error) {
	return machine.Run(c.Program, g, bindingsFor(c.Program.Name, in, p), cfg)
}
