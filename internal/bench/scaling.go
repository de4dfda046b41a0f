package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"gmpregel/internal/obs"
)

// ScalingRow is one (graph, worker-count) cell of the scaling sweep:
// the minimum wall time over the cell's trials.
//
// Speedup is relative to the same graph's one-worker run. CostWorkers
// is the COST metric ("Scalability! But at what COST?"): the smallest
// swept worker count whose run beats the one-worker run, 0 if none did
// — repeated on every row of the graph so each row is self-describing.
//
// Skew columns come from the cell's trace: vertex-compute skew is
// partition imbalance, chunk skew is executor-pool imbalance after
// stealing, owner skew re-bills stolen chunks to the owning worker
// (max/mean, meaningful even when stealing moved everything).
type ScalingRow struct {
	Graph          string        `json:"graph"`
	Algorithm      string        `json:"algorithm"`
	Workers        int           `json:"workers"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	NsPerSuperstep int64         `json:"ns_per_superstep"`
	Speedup        float64       `json:"speedup"`
	CostWorkers    int           `json:"cost_workers"`
	VertexSkew     float64       `json:"vertex_skew"`
	ChunkSkew      float64       `json:"chunk_skew"`
	OwnerSkew      float64       `json:"owner_skew"`
	StolenSpans    int           `json:"stolen_spans"`
}

// ScalingReport wraps the sweep's rows with the configuration that
// produced them. Scale is the sweep's own generator scale (the
// -scaling-scale flag, independent of the global -scale so the scaling
// mode can run on graphs large enough for parallelism to pay);
// GoMaxProcs records the cores actually available — speedup at k >
// GoMaxProcs measures oversubscription, not scaling, and the CI gate
// only enforces thresholds at k <= GoMaxProcs.
type ScalingReport struct {
	Scale      int          `json:"scale"`
	MaxWorkers int          `json:"max_workers"`
	Trials     int          `json:"trials"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Rows       []ScalingRow `json:"rows"`
}

// scalingWorkerCounts doubles from 1 up to max, always including max.
func scalingWorkerCounts(max int) []int {
	var counts []int
	for w := 1; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if len(counts) == 0 || counts[len(counts)-1] != max {
		counts = append(counts, max)
	}
	return counts
}

// scalingPairs lists the (graph, manual algorithm) pairs the sweep
// covers: the Figure-6 graphs, each under the manual algorithm the
// paper evaluates on it.
func scalingPairs() [][2]string {
	return [][2]string{
		{"twitter", "pagerank"},
		{"sk2005", "pagerank"},
		{"bipartite", "bipartite"},
	}
}

// ScalingSweep runs every Figure-6 graph at worker counts 1, 2, 4, …
// up to maxWorkers, keeping the minimum of trials runs per cell. Each
// cell is traced into its own ring (alongside any global observer) so
// the skew columns are per-cell, not cumulative.
func ScalingSweep(w io.Writer, scale, maxWorkers, trials int, seed int64) (*ScalingReport, error) {
	if trials < 1 {
		trials = 1
	}
	rep := &ScalingReport{
		Scale:      scale,
		MaxWorkers: maxWorkers,
		Trials:     trials,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	p := DefaultParams()
	fmt.Fprintf(w, "Scaling sweep: scale %d, workers 1..%d, min of %d trials (GOMAXPROCS=%d)\n",
		scale, maxWorkers, trials, rep.GoMaxProcs)
	fmt.Fprintf(w, "%-10s %7s %12s %8s %12s %11s %11s %8s\n",
		"graph", "workers", "elapsed", "speedup", "vertex-skew", "chunk-skew", "owner-skew", "stolen")
	for _, pair := range scalingPairs() {
		gname, algo := pair[0], pair[1]
		spec, err := GraphByName(gname)
		if err != nil {
			return nil, err
		}
		g := spec.Build(scale)
		boys := 0
		if spec.BipartiteBoys != nil {
			boys = spec.BipartiteBoys(scale)
		}
		in := MakeInputs(g, boys, seed+7)
		first := len(rep.Rows)
		var base time.Duration
		for _, workers := range scalingWorkerCounts(maxWorkers) {
			ring := obs.NewRing(1 << 16)
			cfg := engineConfig(workers, seed)
			cfg.Observer = obs.Multi(cfg.Observer, ring)
			var best Outcome
			for t := 0; t < trials; t++ {
				out, err := RunManual(algo, g, in, p, cfg, 1)
				if err != nil {
					return nil, fmt.Errorf("scaling %s W=%d: %v", gname, workers, err)
				}
				if t == 0 || out.Elapsed < best.Elapsed {
					best = out
				}
			}
			row := ScalingRow{Graph: gname, Algorithm: algo, Workers: workers,
				Elapsed: best.Elapsed, NsPerSuperstep: best.NsPerSuperstep}
			if workers == 1 {
				base = best.Elapsed
			}
			if base > 0 {
				row.Speedup = float64(base) / float64(best.Elapsed)
			}
			sk := obs.Skew(ring.Spans())
			if r, ok := sk.Row("vertex-compute"); ok {
				row.VertexSkew = r.Skew
			}
			if r, ok := sk.Row("chunk"); ok {
				row.ChunkSkew = r.Skew
				row.OwnerSkew = r.OwnerSkew
				row.StolenSpans = r.StolenSpans
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Fprintf(w, "%-10s %7d %12s %8.2f %12.2f %11.2f %11.2f %8d\n",
				gname, workers, row.Elapsed.Round(time.Microsecond), row.Speedup,
				row.VertexSkew, row.ChunkSkew, row.OwnerSkew, row.StolenSpans)
		}
		// COST: the smallest worker count that beat one worker.
		cost := 0
		for _, r := range rep.Rows[first:] {
			if r.Workers > 1 && r.Speedup > 1 {
				cost = r.Workers
				break
			}
		}
		for i := first; i < len(rep.Rows); i++ {
			rep.Rows[i].CostWorkers = cost
		}
		if cost > 0 {
			fmt.Fprintf(w, "%-10s COST: %d workers to beat 1 thread\n", gname, cost)
		} else {
			fmt.Fprintf(w, "%-10s COST: unbounded (no swept worker count beat 1 thread)\n", gname)
		}
	}
	return rep, nil
}
