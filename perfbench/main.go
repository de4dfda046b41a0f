// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine defaults — every engine run uses
// pregel.Config{NumWorkers: nproc, Seed: seed} and nothing else — checks
// every output, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) as a JSON object on the last line of
// standard output, after one line of run metadata.
//
//	go run . -workload pagerank-web -seed 1 -seconds 10 -trace 0
//
// It exits 1 after printing when any output check failed, and 2 without
// printing a result when the workload could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	commit   string
	// corrupt perturbs the reference outputs after they are computed;
	// the benchmark's own test uses it to show a wrong output fails.
	corrupt bool
}

// setUpAgain reports whether a run that has set up n times, taking
// elapsed in all, sets up once more: at least five times and for at
// least three seconds (at most 25 times), so the reported median setup_s
// rests on enough samples. The traced run sets up once.
func (o options) setUpAgain(n int, elapsed time.Duration) bool {
	if o.trace {
		return n < 1
	}
	return n < 5 || (n < 25 && elapsed < 3*time.Second)
}

type metrics map[string]float64

// report is the outcome of one run.
type report struct {
	tally   tally
	metrics metrics
	meta    map[string]any
}

// jobMetrics fills the job end-to-end metrics from the completed jobs'
// latencies, the measured window and the CPU the process spent in it.
func (r *report) jobMetrics(lat []float64, window, cpu time.Duration, peakMiB float64) {
	n := float64(len(lat))
	tv, pct := tail(lat)
	r.metrics["job_ms_p50"] = median(lat)
	r.metrics["job_ms_tail"] = tv
	r.metrics["jobs_per_s"] = n / window.Seconds()
	r.metrics["cpu_ms_per_job"] = ms(cpu) / n
	r.meta["peak_rss_mb"] = peakMiB
	r.meta["tail_percentile"] = pct
	r.meta["tail_samples"] = len(lat)
}

var workloads = map[string]func(options, *report) error{
	"pagerank-web": pagerankWeb.run,
	"sssp-social":  ssspSocial.run,
	"serve-mix":    runServeMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: graph generator, input columns and request mix")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.IntVar(&o.nproc, "nproc", runtime.NumCPU(), "engine workers and serve clients (the CPUs this process may use)")
	flag.StringVar(&o.commit, "commit", "unknown", "commit recorded in the run metadata")
	flag.Parse()
	o.trace = trace != 0
	if _, ok := workloads[o.workload]; !ok || flag.NArg() > 0 || o.seconds < 1 || o.nproc < 1 || trace < 0 || trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (%s) -seed n -seconds n -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, e := range rep.tally.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if err := write(os.Stdout, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if rep.tally.failed > 0 {
		os.Exit(1)
	}
}

func run(o options) (*report, error) {
	rep := &report{metrics: metrics{}, meta: map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"nproc":      o.nproc,
		"go":         runtime.Version(),
		"commit":     o.commit,
	}}
	if err := workloads[o.workload](o, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	return rep, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// write prints the metadata line and the result line. The result holds
// every end-to-end metric, or every per-layer metric when tracing.
func write(w io.Writer, o options, rep *report) error {
	t := &rep.tally
	if t.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]value{},
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		moves := map[string]string{}
		for _, d := range perLayer {
			moves[d.name] = d.moves
		}
		rep.meta["moves"] = moves
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	rep.meta["error_rate"] = float64(t.failed) / float64(t.attempted)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": rep.meta}); err != nil {
		return err
	}
	return enc.Encode(res)
}
