package main

import (
	"fmt"
	"runtime"
	"time"

	"gmpregel/internal/bench"
	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/serve"
)

// batchWorkload runs one compiled program to convergence, again and
// again, for a single closed-loop caller.
type batchWorkload struct {
	query query
	graph func(seed int64) *graph.Directed
	// probe is the gmserve builder graph of the same family and size,
	// which the traced run's serve probe loads (builder graphs have fixed
	// generator seeds).
	probe serve.GraphSpec
}

// pagerankWeb: the paper's PageRank on an RMAT web-like graph of 2^15
// vertices and edge factor 18 — 22 supersteps and 12.4M messages a job.
// Routing is the largest share of its traced run and the interpreter's
// share the smallest, so it shows routing and message-layout changes.
var pagerankWeb = batchWorkload{
	query: query{Algorithm: "pagerank", Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 20.0}},
	graph: func(seed int64) *graph.Directed { return gen.WebLike(15, 18, seed) },
	probe: serve.GraphSpec{Name: serveGraph, Builder: "sk2005", Scale: 4},
}

// ssspSocial: the paper's SSSP on a preferential-attachment graph of 20k
// vertices with out-degree 16. It is the paper's named worst case (no
// voteToHalt in the generated program, about twice the manual vertex
// calls) and routes little, so it shows interpreter and per-superstep
// overhead changes while bypassing most routing work.
var ssspSocial = batchWorkload{
	query: query{Algorithm: "sssp", Params: map[string]any{}},
	graph: func(seed int64) *graph.Directed { return gen.TwitterLike(20000, 16, seed) },
	probe: serve.GraphSpec{Name: serveGraph, Builder: "twitter", Scale: 4},
}

// batchEnv is what set-up leaves for the measured jobs.
type batchEnv struct {
	g     *graph.Directed
	in    *bench.Inputs
	prog  *machine.Program
	b     machine.Bindings
	warm  *machine.Result
	genMS float64
}

// setup generates the graph and input columns from the seed, compiles
// the program and runs one warm-up job.
func (w batchWorkload) setup(seed int64, cfg pregel.Config) (*batchEnv, time.Duration, error) {
	start := time.Now()
	env := &batchEnv{g: w.graph(seed)}
	env.genMS = ms(time.Since(start))
	env.in = bench.MakeInputs(env.g, 0, inputsSeed(seed))
	c, err := core.Compile(w.query.src(), core.Options{})
	if err != nil {
		return nil, 0, err
	}
	env.prog = c.Program
	env.b = bindings(env.prog, w.query, env.in)
	if env.warm, err = machine.Run(env.prog, env.g, env.b, cfg); err != nil {
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	return env, time.Since(start), nil
}

// inputsSeed derives the input-column seed from the workload seed, by
// the evaluation harness's convention.
func inputsSeed(seed int64) int64 { return seed + 7 }

func (w batchWorkload) run(o options, rep *report) error {
	cfg := pregel.Config{NumWorkers: o.nproc, Seed: o.seed}
	var env *batchEnv
	var setups []float64
	for t0 := time.Now(); o.setUpAgain(len(setups), time.Since(t0)); {
		// Each set-up starts from a collected heap holding no earlier
		// graph, so neither its time nor the peak RSS depends on when the
		// collector last ran.
		env = nil
		runtime.GC()
		var d time.Duration
		var err error
		if env, d, err = w.setup(o.seed, cfg); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	orc, err := newOracle(w.query, env.g, env.in)
	if err != nil {
		return err
	}
	if o.corrupt {
		orc.corrupt()
	}
	t := &rep.tally
	t.record(orc.checkGenerated(env.warm))
	// The hand-written baseline must produce the same output and, as
	// §5.2 reports, the same network bytes as the generated program.
	mj := manualJob(w.query, env.g, env.in)
	st, err := pregel.Run(env.g, mj, cfg)
	if err == nil {
		err = orc.checkManual(mj)
	}
	if err == nil {
		err = check("manual NetworkBytes", st.NetworkBytes == env.warm.Stats.NetworkBytes, st.NetworkBytes, env.warm.Stats.NetworkBytes)
	}
	t.record(err)

	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	m := rep.metrics
	if o.trace {
		m["graph.gen_ms"] = env.genMS
		m["graph.nodes"] = float64(env.g.NumNodes())
		m["graph.edges"] = float64(env.g.NumEdges())
		if err := frontEnd([]string{w.query.src()}, window/20, m); err != nil {
			return err
		}
		cases := []engineCase{{q: w.query, prog: env.prog, b: env.b, g: env.g, in: env.in, want: env.warm.Stats}}
		engineLayers(cases, cfg, start.Add(window*13/20), t, m)
		seeds := [2]int64{inputsSeed(o.seed), inputsSeed(o.seed) + 1}
		return serveProbe(w.query, w.probe, seeds, cfg, start.Add(window), compiler{}, t, m)
	}

	runtime.GC()
	cpu0, _ := rusage()
	var lat []float64
	for start = time.Now(); time.Since(start) < window; {
		t0 := time.Now()
		res, err := machine.Run(env.prog, env.g, env.b, cfg)
		if err == nil {
			lat = append(lat, ms(time.Since(t0)))
			err = orc.checkGenerated(res)
		}
		if err == nil {
			err = sameStats("job", res.Stats, env.warm.Stats)
		}
		t.record(err)
	}
	elapsed := time.Since(start)
	cpu1, peak := rusage()
	m["setup_s"] = median(setups)
	rep.jobMetrics(lat, elapsed, cpu1-cpu0, peak)
	return nil
}
