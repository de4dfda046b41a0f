// Command gmbench regenerates the paper's evaluation artifacts:
//
//	gmbench -table 1       input graph statistics (Table 1)
//	gmbench -table 2       lines-of-code comparison (Table 2)
//	gmbench -table 3       transformations applied per algorithm (Table 3)
//	gmbench -figure6       generated-vs-manual runtime/steps/bytes (Figure 6)
//	gmbench -bc            the §5.1 Betweenness Centrality experiment
//	gmbench -ablation      optimization / combiner ablation table
//	gmbench -activity      SSSP per-superstep active-vertex profile (§5.2)
//	gmbench -recovery      checkpoint-overhead / crash-recovery table
//	gmbench -scaling       worker-count scaling sweep (Figure-7-style)
//	                       on the Figure-6 graphs with a COST column;
//	                       sized by -scaling-scale and -scaling-workers
//	                       (not -scale)
//	gmbench -chaos         seeded chaos campaign: fault/stall/budget
//	                       schedules with a bit-identity survival report
//	gmbench -all           every mode above
//
// -scale multiplies graph sizes (scale 1 ≈ 5-8k vertices per graph);
// -workers, -trials and -seed control the engine runs. The recovery
// table is further shaped by -ckpt-every (0 sweeps {1,2,4,8}),
// -crash-step (0 picks a mid-run superstep off the checkpoint grid),
// and -crash-worker. The chaos campaign derives its schedule matrix
// from -seed; -chaos-schedules sets the matrix size (>= 9 covers every
// fault phase).
//
// -chunk N forces the scheduler chunk size of every engine run
// (0 = auto).
//
// Observability:
//
//	-json          emit a machine-readable report on stdout (tables move
//	               to stderr so stdout stays parseable); Figure 6 rows
//	               carry per-run ns_per_superstep and
//	               allocs_per_superstep rates for tracking the engine's
//	               hot-path cost over time
//	-trace         stream engine trace spans as JSONL (-trace-out,
//	               default gmbench.trace.jsonl) and print a worker-skew
//	               report
//	-metrics       write Prometheus text exposition (-metrics-out,
//	               default gmbench.metrics.prom)
//	-http ADDR     serve /metrics, /healthz, /run and /debug/pprof/*
//	               while the benchmark runs
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"gmpregel/internal/bench"
	"gmpregel/internal/obs"
)

// mode is one gmbench artifact generator. -all runs every entry of the
// table, so a mode added here is automatically part of -all.
type mode struct {
	name    string
	enabled func() bool
	run     func(w io.Writer, rep *bench.Report) error
}

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table 1, 2, or 3")
		figure6  = flag.Bool("figure6", false, "regenerate Figure 6")
		bc       = flag.Bool("bc", false, "run the Betweenness Centrality compilation experiment")
		ablation = flag.Bool("ablation", false, "measure optimization and combiner ablations")
		activity = flag.Bool("activity", false, "measure the SSSP per-superstep active-vertex profile (§5.2)")
		recovery = flag.Bool("recovery", false, "measure checkpoint overhead and crash-recovery latency")
		scaling  = flag.Bool("scaling", false, "run the worker-count scaling sweep (Figure-7-style)")
		chaosRun = flag.Bool("chaos", false, "run the seeded chaos campaign (faults, stalls, memory pressure) with a survival report")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Int("scale", 2, "graph scale multiplier")
		workers  = flag.Int("workers", 8, "engine workers")
		trials   = flag.Int("trials", 3, "timing trials (minimum is reported)")
		seed     = flag.Int64("seed", 1, "random seed")

		chunk = flag.Int("chunk", 0, "scheduler chunk size (0 = automatic)")

		scalingScale   = flag.Int("scaling-scale", 8, "scaling: generator scale for the sweep (independent of -scale; large enough that parallelism pays)")
		scalingWorkers = flag.Int("scaling-workers", 8, "scaling: maximum worker count swept (1, 2, 4, ... up to this)")

		ckptEvery   = flag.Int("ckpt-every", 0, "recovery: checkpoint interval (0 sweeps 1,2,4,8)")
		crashStep   = flag.Int("crash-step", 0, "recovery: superstep of the injected crash (0 = auto mid-run)")
		crashWorker = flag.Int("crash-worker", 1, "recovery: worker index of the injected crash")
		chaosScheds = flag.Int("chaos-schedules", 18, "chaos: schedules in the campaign (>= 9 covers every fault phase)")

		jsonOut    = flag.Bool("json", false, "emit a machine-readable JSON report on stdout (tables go to stderr)")
		trace      = flag.Bool("trace", false, "stream engine trace spans as JSONL and print a worker-skew report")
		traceOut   = flag.String("trace-out", "gmbench.trace.jsonl", "trace output path (with -trace)")
		metrics    = flag.Bool("metrics", false, "write Prometheus metrics at exit")
		metricsOut = flag.String("metrics-out", "gmbench.metrics.prom", "metrics output path (with -metrics)")
		httpAddr   = flag.String("http", "", "serve /metrics, /healthz, /run, /debug/pprof on this address while running")
	)
	flag.Parse()

	bench.SetSchedTuning(*chunk)

	rep := &bench.Report{Meta: bench.Meta{
		Scale: *scale, Workers: *workers, Trials: *trials, Seed: *seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}}
	modes := []mode{
		{"table1", func() bool { return *table == 1 }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Table1, err = bench.Table1(w, *scale)
			return
		}},
		{"table2", func() bool { return *table == 2 }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Table2, err = bench.Table2(w)
			return
		}},
		{"table3", func() bool { return *table == 3 }, func(w io.Writer, rep *bench.Report) error {
			traces, err := bench.Table3(w)
			if err != nil {
				return err
			}
			rep.Table3, err = bench.NewTable3Summary(traces)
			return err
		}},
		{"figure6", func() bool { return *figure6 }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Figure6, err = bench.Figure6(w, *scale, *workers, *trials, *seed)
			return
		}},
		{"bc", func() bool { return *bc }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.BC, err = bench.BCExperiment(w, *scale, *workers, *seed)
			return
		}},
		{"ablation", func() bool { return *ablation }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Ablation, err = bench.Ablation(w, *scale, *workers, *trials, *seed)
			return
		}},
		{"activity", func() bool { return *activity }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Activity, err = bench.SSSPActivity(w, *scale, *workers, *seed)
			return
		}},
		{"recovery", func() bool { return *recovery }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Recovery, err = bench.RecoveryTable(w, *scale, *workers, *trials, *seed, *ckptEvery, *crashStep, *crashWorker)
			return
		}},
		{"scaling", func() bool { return *scaling }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Scaling, err = bench.ScalingSweep(w, *scalingScale, *scalingWorkers, *trials, *seed)
			return
		}},
		{"chaos", func() bool { return *chaosRun }, func(w io.Writer, rep *bench.Report) (err error) {
			rep.Chaos, err = bench.ChaosSuite(w, *scale, *workers, *chaosScheds, *seed)
			return
		}},
	}
	anyMode := false
	for _, m := range modes {
		if *all || m.enabled() {
			anyMode = true
		}
	}
	if !anyMode {
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Human-readable tables go to stdout, unless -json claims stdout for
	// the machine-readable report.
	w := io.Writer(os.Stdout)
	if *jsonOut {
		w = os.Stderr
	}
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmbench: %v\n", err)
			os.Exit(1)
		}
	}

	// Observability: every engine run the harness performs reports to the
	// observers selected here; the ring additionally feeds the skew report
	// and the JSON report's skew section.
	observing := *trace || *metrics || *httpAddr != ""
	var (
		observers []obs.Observer
		ring      *obs.Ring
		jsonl     *obs.JSONL
		traceFile *os.File
		reg       = obs.NewRegistry()
		live      *obs.Live
	)
	if observing {
		ring = obs.NewRing(1 << 18)
		observers = append(observers, ring)
	}
	if *trace {
		f, err := os.Create(*traceOut)
		fail(err)
		traceFile = f
		jsonl = obs.NewJSONL(f)
		observers = append(observers, jsonl)
	}
	if *metrics || *httpAddr != "" {
		observers = append(observers, obs.NewMetricsObserver(reg))
	}
	if *httpAddr != "" {
		live = obs.NewLive()
		observers = append(observers, live)
		srv := &http.Server{Addr: *httpAddr, Handler: obs.Handler(reg, live)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "gmbench: http: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gmbench: serving introspection on http://%s\n", *httpAddr)
	}
	bench.SetObserver(obs.Multi(observers...))

	for _, m := range modes {
		if !*all && !m.enabled() {
			continue
		}
		start := time.Now()
		fail(m.run(w, rep))
		d := time.Since(start)
		// Harness-level metrics guarantee a non-empty exposition even for
		// modes that never start the engine (tables 1-3).
		reg.Counter("gmbench_mode_runs_total", "benchmark modes executed", obs.L("mode", m.name)).Inc()
		reg.Histogram("gmbench_mode_seconds", "wall time per benchmark mode", obs.DurationBuckets(), obs.L("mode", m.name)).Observe(d.Seconds())
		fmt.Fprintln(w)
	}

	if ring != nil {
		if spans := ring.Spans(); len(spans) > 0 {
			skew := obs.Skew(spans)
			rep.Skew = skew
			fmt.Fprintf(w, "Worker skew by engine phase (%d spans", len(spans))
			if d := ring.Dropped(); d > 0 {
				fmt.Fprintf(w, ", oldest %d dropped", d)
			}
			fmt.Fprintf(w, "):\n%s\n", skew.String())
		}
	}
	if jsonl != nil {
		fail(jsonl.Err())
		fail(traceFile.Close())
		fmt.Fprintf(os.Stderr, "gmbench: trace written to %s\n", *traceOut)
	}
	if *metrics {
		f, err := os.Create(*metricsOut)
		fail(err)
		fail(reg.WritePrometheus(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "gmbench: metrics written to %s\n", *metricsOut)
	}
	if *jsonOut {
		fail(rep.WriteJSON(os.Stdout))
	}
}
