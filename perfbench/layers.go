package main

import (
	"runtime"
	"time"
	"unsafe"

	"gmpregel/internal/bench"
	"gmpregel/internal/core"
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/parser"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/graph"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

// frontEnd times the compiler's public entry points on each source —
// parser.ParseProcedure, sema.Check, analysis.AnalyzeProcedure and the
// whole core.Compile — repeating until budget is spent (at least three
// times), and reports the per-source medians summed over the sources.
func frontEnd(srcs []string, budget time.Duration, m metrics) error {
	var parseUS, semaUS, analysisUS, compileUS float64
	var states, msgTypes int
	per := budget / time.Duration(len(srcs))
	for _, src := range srcs {
		var p, s, a, c []float64
		var cp *core.Compiled
		for start := time.Now(); len(p) < 3 || time.Since(start) < per; {
			t0 := time.Now()
			proc, err := parser.ParseProcedure(src)
			if err != nil {
				return err
			}
			t1 := time.Now()
			info, err := sema.Check(proc)
			if err != nil {
				return err
			}
			t2 := time.Now()
			analysis.AnalyzeProcedure(proc, info)
			t3 := time.Now()
			if cp, err = core.Compile(src, core.Options{}); err != nil {
				return err
			}
			t4 := time.Now()
			p = append(p, us(t1.Sub(t0)))
			s = append(s, us(t2.Sub(t1)))
			a = append(a, us(t3.Sub(t2)))
			c = append(c, us(t4.Sub(t3)))
		}
		parseUS += median(p)
		semaUS += median(s)
		analysisUS += median(a)
		compileUS += median(c)
		states += cp.Program.NumVertexStates()
		msgTypes += len(cp.Program.Msgs)
	}
	m["gm.parse_us"] = parseUS
	m["gm.sema_us"] = semaUS
	m["gm.analysis_us"] = analysisUS
	m["core.compile_us"] = compileUS
	m["core.vertex_states"] = float64(states)
	m["core.msg_types"] = float64(msgTypes)
	return nil
}

// engineCase is one query prepared for direct engine runs, with the
// reference Stats every run of it must reproduce.
type engineCase struct {
	q    query
	prog *machine.Program
	b    machine.Bindings
	g    *graph.Directed
	in   *bench.Inputs
	want pregel.Stats
}

// pass is one timed execution of every case in order.
type pass struct {
	ms     float64
	allocs uint64
	calls  int64
	steps  int
	prof   phaseProfile
}

// The three kinds of pass engineLayers compares.
const (
	armGenerated = iota // the compiled program, untraced
	armTraced           // the compiled program with a span log as Config.Observer
	armManual           // the hand-written baseline
	numArms
)

// runPass executes every case once on the given arm, and checks each
// run's Stats (generated) or network bytes (manual) against the case's
// reference.
func runPass(cases []engineCase, cfg pregel.Config, arm int, t *tally) pass {
	var p pass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, c := range cases {
		if arm == armManual {
			st, err := pregel.Run(c.g, manualJob(c.q, c.g, c.in), cfg)
			if err == nil {
				err = check("manual NetworkBytes", st.NetworkBytes == c.want.NetworkBytes, st.NetworkBytes, c.want.NetworkBytes)
			}
			t.record(err)
			p.calls += st.VertexCalls
			continue
		}
		runCfg := cfg
		var log spanLog
		if arm == armTraced {
			runCfg.Observer = &log
		}
		res, err := machine.Run(c.prog, c.g, c.b, runCfg)
		if err == nil {
			err = sameStats("generated", res.Stats, c.want)
			p.calls += res.Stats.VertexCalls
			p.steps += res.Stats.Supersteps
		}
		t.record(err)
		p.prof.add(log.spans)
	}
	p.ms = ms(time.Since(start))
	runtime.ReadMemStats(&after)
	p.allocs = after.Mallocs - before.Mallocs
	return p
}

// engineLayers measures the machine, manual, pregel and obs layers: it
// runs rounds of one pass over cases per arm, rotating the arms' order
// each round, until the deadline (at least three rounds). Times are
// medians over rounds; counts come from the reference Stats and repeat
// exactly.
func engineLayers(cases []engineCase, cfg pregel.Config, deadline time.Time, t *tally, m metrics) {
	var passes [numArms][]pass
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i := 0; i < numArms; i++ {
			arm := (round + i) % numArms
			passes[arm] = append(passes[arm], runPass(cases, cfg, arm, t))
		}
	}
	plain, traced, man := passes[armGenerated], passes[armTraced], passes[armManual]
	field := func(ps []pass, f func(pass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	plainMS := field(plain, func(p pass) float64 { return p.ms })
	manMS := field(man, func(p pass) float64 { return p.ms })
	m["machine.overhead_ratio"] = plainMS / manMS
	m["machine.vertex_calls_ratio"] = float64(plain[0].calls) / float64(man[0].calls)
	m["machine.allocs_per_superstep"] = field(plain, func(p pass) float64 { return float64(p.allocs) / float64(p.steps) })
	m["manual.job_ms_p50"] = manMS
	m["obs.trace_overhead_ratio"] = field(traced, func(p pass) float64 { return p.ms }) / plainMS

	prof := func(f func(phaseProfile) float64) float64 {
		return field(traced, func(p pass) float64 { return f(p.prof) })
	}
	m["pregel.route_ms"] = prof(func(p phaseProfile) float64 { return p.route })
	m["pregel.route_eager_ms"] = prof(func(p phaseProfile) float64 { return p.routeEager })
	m["pregel.compute_ms"] = prof(func(p phaseProfile) float64 { return p.compute })
	m["pregel.master_ms"] = prof(func(p phaseProfile) float64 { return p.master })
	m["pregel.barrier_ms"] = prof(func(p phaseProfile) float64 { return p.barrier })
	m["pregel.unattributed_ms"] = prof(phaseProfile.unattributed)
	m["pregel.compute_skew"] = prof(func(p phaseProfile) float64 { return p.compute / p.computeMean })
	m["pregel.stolen_chunks"] = prof(func(p phaseProfile) float64 { return float64(p.stolenChunks) })
	m["pregel.pull_steps"] = prof(func(p phaseProfile) float64 { return float64(p.pullSteps) })

	var st pregel.Stats
	for _, c := range cases {
		st.Supersteps += c.want.Supersteps
		st.MessagesSent += c.want.MessagesSent
		st.NetworkBytes += c.want.NetworkBytes
		st.ControlBytes += c.want.ControlBytes
		st.VertexCalls += c.want.VertexCalls
	}
	m["pregel.supersteps"] = float64(st.Supersteps)
	m["pregel.messages"] = float64(st.MessagesSent)
	m["pregel.net_bytes"] = float64(st.NetworkBytes)
	m["pregel.control_bytes"] = float64(st.ControlBytes)
	m["pregel.vertex_calls"] = float64(st.VertexCalls)
	// Computed, not measured: every message occupies one pregel.Msg in
	// a sender's outbox and again in the receiver's inbox.
	m["pregel.msg_buffer_mb"] = float64(st.MessagesSent) * float64(unsafe.Sizeof(pregel.Msg{})) * 2 / (1 << 20)
}
