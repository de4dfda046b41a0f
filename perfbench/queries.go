package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/bench"
	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
	"gmpregel/internal/seq"
)

// query is one program invocation: a built-in algorithm or Green-Marl
// source with its scalar parameters in the JSON form gmserve decodes
// (numbers are float64). Property inputs bind by gmserve's column
// convention (age, member, is_boy, len) from a bench.Inputs.
type query struct {
	Algorithm string
	Source    string
	Params    map[string]any
	NoCache   bool
}

func (q query) src() string {
	if q.Source != "" {
		return q.Source
	}
	if s, ok := algorithms.ByName[q.Algorithm]; ok {
		return s
	}
	return algorithms.ExtraByName[q.Algorithm]
}

// key identifies the query's result: program and parameters. NoCache
// does not change the result, so it is not part of the key.
func (q query) key() string {
	p, _ := json.Marshal(q.Params) // map keys marshal sorted
	name := q.Algorithm
	if name == "" {
		name = fmt.Sprintf("src:%x", sha256.Sum256([]byte(q.Source)))[:16]
	}
	return name + string(p)
}

func (q query) float(name string) float64 { f, _ := q.Params[name].(float64); return f }
func (q query) int(name string) int64     { return int64(q.float(name)) }

// root is the SSSP source: the "root" parameter when given, else the
// inputs' root, as gmserve binds it.
func (q query) root(in *bench.Inputs) graph.NodeID {
	if _, ok := q.Params["root"]; ok {
		return graph.NodeID(q.int("root"))
	}
	return in.Root
}

// compiler memoizes core.Compile by source text.
type compiler map[string]*core.Compiled

func (c compiler) program(q query) (*machine.Program, error) {
	src := q.src()
	if cp, ok := c[src]; ok {
		return cp.Program, nil
	}
	cp, err := core.Compile(src, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", q.key(), err)
	}
	c[src] = cp
	return cp.Program, nil
}

// bindings binds q's parameters and the input columns p declares.
func bindings(p *machine.Program, q query, in *bench.Inputs) machine.Bindings {
	b := machine.Bindings{
		Int:         map[string]int64{},
		Float:       map[string]float64{},
		Node:        map[string]graph.NodeID{},
		NodePropInt: map[string][]int64{},
	}
	for _, sc := range p.Scalars {
		if !sc.IsParam {
			continue
		}
		switch sc.Kind {
		case ir.KInt:
			b.Int[sc.Name] = q.int(sc.Name)
		case ir.KFloat:
			b.Float[sc.Name] = q.float(sc.Name)
		case ir.KNode:
			b.Node[sc.Name] = q.root(in)
		}
	}
	for _, pd := range p.Props {
		switch {
		case !pd.IsParam:
		case pd.Name == "age" && !pd.IsEdge:
			b.NodePropInt["age"] = in.Age
		case pd.Name == "member" && !pd.IsEdge:
			b.NodePropInt["member"] = in.Member
		case pd.Name == "len" && pd.IsEdge:
			b.EdgePropInt = map[string][]int64{"len": in.EdgeLen}
		}
	}
	return b
}

// manualJob returns the hand-written Pregel job computing q, or nil
// when the algorithm has none.
func manualJob(q query, g *graph.Directed, in *bench.Inputs) pregel.Job {
	n := g.NumNodes()
	switch q.Algorithm {
	case "pagerank":
		return &manual.PageRank{Eps: q.float("e"), D: q.float("d"), MaxIter: int(q.int("max_iter")), PR: make([]float64, n)}
	case "sssp":
		return &manual.SSSP{Root: q.root(in), Len: in.EdgeLen, Dist: make([]int64, n)}
	case "avgteen":
		return &manual.AvgTeen{K: q.int("K"), Age: in.Age, TeenCnt: make([]int64, n)}
	case "conductance":
		return &manual.Conductance{Num: q.int("num"), Member: in.Member}
	}
	return nil
}

// pageRankTol is the per-vertex relative tolerance against seq.PageRank:
// the engine sums contributions in a different order than the oracle.
const pageRankTol = 1e-9

// oracle holds the sequential reference output of a batch query, and
// checks the generated and manual outputs against it.
type oracle struct {
	pr   []float64
	dist []int64
}

func newOracle(q query, g *graph.Directed, in *bench.Inputs) (*oracle, error) {
	switch q.Algorithm {
	case "pagerank":
		return &oracle{pr: seq.PageRank(g, q.float("e"), q.float("d"), int(q.int("max_iter")))}, nil
	case "sssp":
		return &oracle{dist: seq.SSSP(g, q.root(in), in.EdgeLen)}, nil
	}
	return nil, fmt.Errorf("no sequential oracle for %q", q.Algorithm)
}

// corrupt perturbs the reference output, so every later check against
// it must fail.
func (o *oracle) corrupt() {
	if o.pr != nil {
		o.pr[0] += 1
	}
	if o.dist != nil {
		o.dist[0]++
	}
}

func (o *oracle) checkGenerated(res *machine.Result) error {
	if o.pr != nil {
		got, err := res.NodePropFloat("pg_rank")
		if err != nil {
			return err
		}
		return o.checkPR("generated", got)
	}
	got, err := res.NodePropInt("dist")
	if err != nil {
		return err
	}
	return o.checkDist("generated", got)
}

func (o *oracle) checkManual(j pregel.Job) error {
	switch j := j.(type) {
	case *manual.PageRank:
		return o.checkPR("manual", j.PR)
	case *manual.SSSP:
		return o.checkDist("manual", j.Dist)
	}
	return fmt.Errorf("no oracle check for %T", j)
}

func (o *oracle) checkPR(who string, got []float64) error {
	if len(got) != len(o.pr) {
		return fmt.Errorf("%s pg_rank: %d values, want %d", who, len(got), len(o.pr))
	}
	for v, want := range o.pr {
		if math.Abs(got[v]-want) > pageRankTol*math.Abs(want) {
			return fmt.Errorf("%s pg_rank[%d] = %v, seq.PageRank %v (relative tolerance %g)", who, v, got[v], want, pageRankTol)
		}
	}
	return nil
}

func (o *oracle) checkDist(who string, got []int64) error {
	if len(got) != len(o.dist) {
		return fmt.Errorf("%s dist: %d values, want %d", who, len(got), len(o.dist))
	}
	for v, want := range o.dist {
		if got[v] != want {
			return fmt.Errorf("%s dist[%d] = %d, seq.SSSP %d", who, v, got[v], want)
		}
	}
	return nil
}

// sameStats reports a mismatch of a run's deterministic Stats against
// the reference run's.
func sameStats(what string, got, want pregel.Stats) error {
	return check(what+" stats", reflect.DeepEqual(got, want), got, want)
}
