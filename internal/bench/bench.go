// Package bench regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (input graphs), Table 2 (lines of code),
// Table 3 (transformations applied per algorithm), Figure 6 (normalized
// runtime of compiler-generated vs. manual Pregel programs, with
// timestep and network-I/O comparison), and the §5.1 Betweenness
// Centrality compilation experiment.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// observer, when set, is attached to every engine run the harness
// performs (all tables, figures, and experiments).
var observer obs.Observer

// SetObserver attaches o to every subsequent engine run the harness
// performs; pass nil to detach. Timing-sensitive comparisons stay valid
// because every run in a harness invocation carries the same observer
// (or none).
func SetObserver(o obs.Observer) { observer = o }

// chunkSize carries the -chunk knob into every engine run the harness
// performs; 0 is the engine's automatic chunk size.
var chunkSize int

// SetSchedTuning sets the scheduling chunk size of every subsequent
// engine run the harness performs.
func SetSchedTuning(size int) { chunkSize = size }

// engineConfig is the single place harness code builds a pregel.Config,
// so the observer and chunk size reach every run.
func engineConfig(workers int, seed int64) pregel.Config {
	return pregel.Config{
		NumWorkers: workers,
		Seed:       seed,
		Observer:   observer,
		ChunkSize:  chunkSize,
	}
}

// GraphSpec describes one evaluation input graph, a scaled-down
// structural stand-in for the paper's Table 1 datasets.
type GraphSpec struct {
	Name        string
	Description string
	// PaperNodes/PaperEdges are the original dataset sizes, reported for
	// context in Table 1.
	PaperNodes, PaperEdges string
	Build                  func(scale int) *graph.Directed
	// BipartiteBoys is the boy-partition size (bipartite graph only).
	BipartiteBoys func(scale int) int
}

// Graphs returns the three evaluation graphs at the given scale
// (scale 1 ≈ 5-8k vertices; node counts grow linearly with scale).
func Graphs() []GraphSpec {
	return []GraphSpec{
		{
			Name:        "twitter",
			Description: "Twitter-like follower network (preferential attachment)",
			PaperNodes:  "42M", PaperEdges: "1.5B",
			Build: func(scale int) *graph.Directed {
				return gen.TwitterLike(5000*scale, 16, 101)
			},
		},
		{
			Name:        "bipartite",
			Description: "Synthetic uniform-random bipartite",
			PaperNodes:  "75M", PaperEdges: "1.5B",
			Build: func(scale int) *graph.Directed {
				return gen.Bipartite(3750*scale, 3750*scale, 10, 202)
			},
			BipartiteBoys: func(scale int) int { return 3750 * scale },
		},
		{
			Name:        "sk2005",
			Description: "Web-graph-like (RMAT, skewed quadrants)",
			PaperNodes:  "51M", PaperEdges: "1.9B",
			Build: func(scale int) *graph.Directed {
				// RMAT sizes are powers of two; pick the closest scale.
				s := 13
				for (1 << uint(s)) < 6000*scale {
					s++
				}
				return gen.WebLike(s, 18, 303)
			},
		},
	}
}

// GraphByName returns the named evaluation graph spec.
func GraphByName(name string) (GraphSpec, error) {
	for _, g := range Graphs() {
		if g.Name == name {
			return g, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("bench: unknown graph %q (want twitter, bipartite, or sk2005)", name)
}

// Inputs holds the per-algorithm input data derived deterministically
// from a graph and seed.
type Inputs struct {
	Age     []int64
	Member  []int64
	EdgeLen []int64
	IsBoy   []bool
	Root    graph.NodeID
}

// MakeInputs builds deterministic inputs for all algorithms on g.
func MakeInputs(g *graph.Directed, boys int, seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	in := &Inputs{
		Age:     make([]int64, n),
		Member:  make([]int64, n),
		EdgeLen: make([]int64, g.NumEdges()),
		IsBoy:   make([]bool, n),
	}
	for v := 0; v < n; v++ {
		in.Age[v] = int64(8 + rng.Intn(70))
		in.Member[v] = int64(rng.Intn(4))
		if v < boys {
			in.IsBoy[v] = true
		}
	}
	for e := range in.EdgeLen {
		in.EdgeLen[e] = int64(1 + rng.Intn(16))
	}
	if n > 0 {
		// Pick a root that actually reaches something, so SSSP exercises
		// the full relaxation (RMAT graphs have many sink vertices).
		in.Root = graph.NodeID(rng.Intn(n))
		for tries := 0; tries < 100 && g.OutDegree(in.Root) == 0; tries++ {
			in.Root = graph.NodeID(rng.Intn(n))
		}
	}
	return in
}

// timeRun measures fn's wall time, returning the minimum over trials.
func timeRun(trials int, fn func() error) (time.Duration, error) {
	d, _, err := timeAndAllocRun(trials, fn)
	return d, err
}

// timeAndAllocRun measures fn's wall time and heap allocation count
// (runtime mallocs, all goroutines), returning the minimum of each over
// trials. The alloc floor is what the zero-allocation superstep work
// tracks: for an engine run it converges to per-run setup cost, with no
// per-superstep component.
func timeAndAllocRun(trials int, fn func() error) (time.Duration, uint64, error) {
	best := time.Duration(1<<63 - 1)
	bestAllocs := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < trials; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if d < best {
			best = d
		}
		if a := ms.Mallocs - before; a < bestAllocs {
			bestAllocs = a
		}
	}
	return best, bestAllocs, nil
}

// masterRand mirrors the engine's master RNG construction so harness
// code can replay PickRandom sequences.
func masterRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
