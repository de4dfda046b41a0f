package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"gmpregel/internal/obs"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it — the eleventh-largest sample — with that
// percentile. With ten samples or fewer no percentile qualifies, and the
// maximum is returned as the 100th.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// rusage returns the process's user+system CPU time and its peak
// resident set size in MiB (ru_maxrss, the kernel's VmHWM, is in KiB on
// Linux).
func rusage() (cpu time.Duration, peakMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}

// tally counts attempted and failed operations. A failure is an error,
// a wrong output or a refused request; the first few are kept for the
// report. Safe for concurrent use by load clients.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// spanLog keeps one run's engine spans in memory. The engine emits
// spans from a single goroutine, so no locking is needed.
type spanLog struct{ spans []obs.Span }

func (l *spanLog) ObserveSpan(s obs.Span) { l.spans = append(l.spans, s) }

// phaseProfile splits traced engine runs into the engine's phases, in
// milliseconds (summed over the runs of one pass).
type phaseProfile struct {
	// route is message delivery after the barrier: the routing phase
	// of push supersteps plus the gather of pull supersteps.
	route      float64
	routeEager float64
	// compute is the slowest worker's vertex-compute span summed over
	// supersteps; computeMean the same sum over the mean worker. A
	// worker's span adds up its chunks' durations wherever they ran, so
	// with stealing it measures work, not wall time: vertexWall is the
	// vertex phase's wall time, from the first chunk start to the last
	// chunk end.
	compute, computeMean float64
	vertexWall           float64
	master, barrier      float64
	run                  float64
	stolenChunks         int
	pullSteps            int
}

// unattributed is the run's wall time outside the master, vertex,
// delivery and barrier phases.
func (p phaseProfile) unattributed() float64 {
	return p.run - (p.master + p.vertexWall + p.route + p.barrier)
}

// add folds the spans of one engine run into p.
func (p *phaseProfile) add(spans []obs.Span) {
	type step struct {
		max, sum   int64
		n          int
		start, end int64 // chunk extent
	}
	steps := map[int]*step{}
	stepOf := func(superstep int) *step {
		st := steps[superstep]
		if st == nil {
			st = &step{start: -1}
			steps[superstep] = st
		}
		return st
	}
	for _, s := range spans {
		d := float64(s.DurNS) / 1e6
		switch s.Phase {
		case obs.PhaseRouting:
			p.route += d
		case obs.PhasePull:
			p.route += d
			p.pullSteps++
		case obs.PhaseRouteEager:
			p.routeEager += d
		case obs.PhaseMaster:
			p.master += d
		case obs.PhaseBarrier:
			p.barrier += d
		case obs.PhaseChunk:
			if s.Stolen {
				p.stolenChunks++
			}
			st := stepOf(s.Superstep)
			if st.start < 0 || s.StartNS < st.start {
				st.start = s.StartNS
			}
			st.end = max(st.end, s.StartNS+s.DurNS)
		case obs.PhaseRun:
			p.run += d
		case obs.PhaseVertexCompute:
			st := stepOf(s.Superstep)
			st.max = max(st.max, s.DurNS)
			st.sum += s.DurNS
			st.n++
		}
	}
	for _, st := range steps {
		p.compute += float64(st.max) / 1e6
		if st.n > 0 {
			p.computeMean += float64(st.sum) / float64(st.n) / 1e6
		}
		if st.start >= 0 {
			p.vertexWall += float64(st.end-st.start) / 1e6
		}
	}
}

// check returns an error naming what differs when got != want.
func check(what string, ok bool, got, want any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
