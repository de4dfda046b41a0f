package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/bench"
	"gmpregel/internal/pregel"
	"gmpregel/internal/serve"
)

// serve-mix: an in-process gmserve on loopback, loaded by nproc
// closed-loop clients that each hold one keep-alive connection and send
// synchronous POST /jobs. It is the only workload that exercises the
// serve layer and the engine's per-run fixed costs on small jobs.
var serveMixGraph = serve.GraphSpec{Name: serveGraph, Builder: "twitter", Scale: 2}

// swapEvery is the number of client operations per POST /graphs
// hot-swap (the write path: it invalidates cached results and pays a
// graph build while queries keep running). Swaps come at a fixed
// interval, not at random, so each run's cache hit ratio — and with it
// the latency median — does not hang on how many swaps it drew.
const swapEvery = 50

type weighted struct {
	q      query
	weight int
}

// serveMix draws the request mix from the seed: built-ins with
// parameters from small sets and nocache Green-Marl source submissions.
// The 60 cacheable results per snapshot version make about a quarter of
// requests hit the result cache, and SSSP misses — 40 seeded roots —
// span the middle of the latency distribution, so the median stays on an
// engine run inside one dense cluster. Shares of requests: SSSP 64%,
// PageRank 16%, AvgTeen 7%, Conductance 5%, DegreeStats source 3%, WCC
// source 5% (enough that the tail percentile falls among WCC runs).
func serveMix(seed int64, nodes int) []weighted {
	rng := rand.New(rand.NewSource(seed))
	var mix []weighted
	for _, r := range rng.Perm(nodes)[:40] {
		mix = append(mix, weighted{query{Algorithm: "sssp", Params: map[string]any{"root": float64(r)}}, 11})
	}
	for _, d := range []float64{0.85, 0.8} {
		for _, it := range []float64{4, 6, 8, 10} {
			mix = append(mix, weighted{query{Algorithm: "pagerank", Params: map[string]any{"e": 1e-4, "d": d, "max_iter": it}}, 14})
		}
	}
	for _, k := range rng.Perm(30)[:8] {
		mix = append(mix, weighted{query{Algorithm: "avgteen", Params: map[string]any{"K": float64(20 + k)}}, 6})
	}
	for num := 0; num < 4; num++ {
		mix = append(mix, weighted{query{Algorithm: "conductance", Params: map[string]any{"num": float64(num)}}, 8})
	}
	mix = append(mix,
		weighted{query{Source: algorithms.DegreeStats, Params: map[string]any{}, NoCache: true}, 24},
		weighted{query{Source: algorithms.WCC, Params: map[string]any{}, NoCache: true}, 36})
	return mix
}

func pick(mix []weighted, rng *rand.Rand) query {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	n := rng.Intn(total)
	for _, w := range mix {
		if n -= w.weight; n < 0 {
			return w.q
		}
	}
	return mix[len(mix)-1].q
}

// serveSetup starts a server, loads the graph and serves one warm-up
// request.
func serveSetup(cfg pregel.Config, refs *references, warm query, t *tally) (*server, *swapper, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(cfg.NumWorkers, cfg.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.url)
	defer c.close()
	sw := &swapper{refs: refs}
	if _, err := sw.load(c); err != nil {
		srv.close()
		return nil, nil, 0, err
	}
	_, err = c.job(warm, refs)
	t.record(err)
	return srv, sw, time.Since(start), nil
}

func runServeMix(o options, rep *report) error {
	cfg := pregel.Config{NumWorkers: o.nproc, Seed: o.seed}
	t := &rep.tally
	m := rep.metrics
	start := time.Now()
	g, err := builderGraph(serveMixGraph)
	if err != nil {
		return err
	}
	genMS := ms(time.Since(start))
	mix := serveMix(o.seed, g.NumNodes())
	qs := make([]query, len(mix))
	for i, w := range mix {
		qs[i] = w.q
	}
	comp := compiler{}
	seeds := [2]int64{inputsSeed(o.seed), inputsSeed(o.seed) + 1}
	refs, err := newReferences(serveMixGraph, g, seeds, qs, cfg, comp)
	if err != nil {
		return err
	}
	if o.corrupt {
		refs.corrupt(qs[0])
	}

	var srv *server
	var sw *swapper
	var setups []float64
	for t0 := time.Now(); o.setUpAgain(len(setups), time.Since(t0)); {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		var d time.Duration
		if srv, sw, d, err = serveSetup(cfg, refs, qs[0], t); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.close()

	window := time.Duration(o.seconds) * time.Second
	loadWindow := window
	if o.trace {
		loadWindow = window * 3 / 5
	}
	runtime.GC()
	cpu0, _ := rusage()
	start = time.Now()
	s := load(srv, sw, mix, refs, o.nproc, o.seed, start.Add(loadWindow), t)
	elapsed := time.Since(start)
	cpu1, peak := rusage()
	if !o.trace {
		m["setup_s"] = median(setups)
		rep.jobMetrics(s.jobs, elapsed, cpu1-cpu0, peak)
		return nil
	}

	s.report(m)
	m["graph.gen_ms"] = genMS
	m["graph.nodes"] = float64(g.NumNodes())
	m["graph.edges"] = float64(g.NumEdges())
	srcs := map[string]bool{}
	var distinct []string
	for _, q := range qs {
		if !srcs[q.src()] {
			srcs[q.src()] = true
			distinct = append(distinct, q.src())
		}
	}
	phase := time.Now()
	if err := frontEnd(distinct, window/20, m); err != nil {
		return err
	}
	// One pass runs the first query of each built-in with a hand-written
	// baseline, on the first input version.
	in := bench.MakeInputs(g, 0, seeds[0])
	var cases []engineCase
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.Algorithm] || manualJob(q, g, in) == nil {
			continue
		}
		seen[q.Algorithm] = true
		p, err := comp.program(q)
		if err != nil {
			return err
		}
		cases = append(cases, engineCase{q: q, prog: p, b: bindings(p, q, in), g: g, in: in, want: refs.stats[0][q.key()]})
	}
	engineLayers(cases, cfg, phase.Add(window-loadWindow), t, m)
	return nil
}

// load runs the closed-loop clients until the deadline. Every
// swapEvery-th operation across clients is a hot-swap; each client draws
// its jobs from its own seeded stream.
func load(srv *server, sw *swapper, mix []weighted, refs *references, clients int, seed int64, deadline time.Time, t *tally) *serveSamples {
	s := &serveSamples{}
	var ops atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(srv.url)
			defer c.close()
			rng := rand.New(rand.NewSource(seed*1009 + int64(i)))
			for time.Now().Before(deadline) {
				if ops.Add(1)%swapEvery == 0 {
					d, err := sw.load(c)
					t.record(err)
					s.addSwap(d, err)
					continue
				}
				r, err := c.job(pick(mix, rng), refs)
				t.record(err)
				s.addJob(r, err)
			}
		}(i)
	}
	wg.Wait()
	return s
}
