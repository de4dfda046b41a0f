// Package pregel implements a GPS-like bulk-synchronous vertex-centric
// graph processing engine: the substrate the paper's compiler targets.
//
// The engine reproduces the programming model of Pregel as extended by
// GPS (Salihoglu & Widom): a master.compute() function that runs at the
// beginning of every superstep, a vertex.compute() function invoked for
// each active vertex, push-only messaging with delivery in the next
// superstep, a global-objects map for master→vertex broadcast, reduction
// aggregators for vertex→master communication, and voteToHalt().
//
// Vertices are hash-partitioned across W workers (id mod W) and
// executed by W persistent executor goroutines, spawned once per run
// and parked on a reusable barrier between phases.
// Within a superstep each worker's vertex-compute and routing work is
// split into fixed-size chunks pulled from shared queues; an executor
// that drains its own worker's chunks deterministically steals remaining
// chunks from the most-loaded worker (see docs/ENGINE.md, "Hot path and
// scheduling"). Results and Stats are independent of which executor runs
// a chunk: per-chunk output is merged at the barrier in canonical
// (worker, chunk) order, combiner folding is worker-scoped, and
// vertex-level RNG streams are seeded per (vertex, superstep).
//
// Messages between vertices on different workers are accounted as
// network I/O at their serialized wire size; master broadcast and
// aggregator traffic is accounted separately as control I/O. Runs are
// deterministic for a fixed configuration and seed: inboxes are grouped
// in source-worker order regardless of chunk size or stealing.
package pregel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/obs"
)

// MaxPayloadSlots is the number of 64-bit payload slots in a Msg.
// Four slots cover every message schema the compiler generates (the most
// complex, Betweenness Centrality's reverse sweep, needs two).
const MaxPayloadSlots = 4

// Msg is a message between vertices, as a job builds it for Send and
// SendToAllNbrs. Payload slots hold int64, float64 (bit-cast), bool, or
// node IDs; the schema of each Type determines how many slots are live
// and what their wire size is. The engine buffers only the live slots
// (Schema.MessageSlots): slots beyond a type's declared width are not
// delivered and read as 0 on the receiving side. When the schema
// declares exactly one message type the engine stores no type tag, and
// every message is delivered, accounted and combined as type 0.
type Msg struct {
	Dst  graph.NodeID
	Type uint8
	V    [MaxPayloadSlots]uint64
}

// SetInt stores an int64 in payload slot i.
//
//gm:noalloc
func (m *Msg) SetInt(i int, v int64) { m.V[i] = uint64(v) }

// Int reads payload slot i as an int64.
//
//gm:noalloc
func (m *Msg) Int(i int) int64 { return int64(m.V[i]) }

// SetFloat stores a float64 in payload slot i.
//
//gm:noalloc
func (m *Msg) SetFloat(i int, v float64) { m.V[i] = math.Float64bits(v) }

// Float reads payload slot i as a float64.
//
//gm:noalloc
func (m *Msg) Float(i int) float64 { return math.Float64frombits(m.V[i]) }

// SetBool stores a bool in payload slot i.
//
//gm:noalloc
func (m *Msg) SetBool(i int, v bool) {
	if v {
		m.V[i] = 1
	} else {
		m.V[i] = 0
	}
}

// Bool reads payload slot i as a bool.
//
//gm:noalloc
func (m *Msg) Bool(i int) bool { return m.V[i] != 0 }

// SetNode stores a node ID in payload slot i.
//
//gm:noalloc
func (m *Msg) SetNode(i int, v graph.NodeID) { m.V[i] = uint64(uint32(v)) }

// Node reads payload slot i as a node ID.
//
//gm:noalloc
func (m *Msg) Node(i int) graph.NodeID { return graph.NodeID(int32(uint32(m.V[i]))) }

// AggOp is an aggregator reduction operator.
type AggOp uint8

// Aggregator reduction operators. AggAny keeps an arbitrary (but
// deterministic: highest-indexed contributing chunk's last write)
// contributed value, mirroring the effect of parallel plain writes to a
// global.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggOr
	AggAnd
	AggAny
)

// AggKind is the value domain of an aggregator.
type AggKind uint8

// Aggregator value kinds; node IDs aggregate as AggKindInt.
const (
	AggKindInt AggKind = iota
	AggKindFloat
	AggKindBool
)

// AggSpec declares one aggregator slot.
type AggSpec struct {
	Name string
	Kind AggKind
	Op   AggOp
}

// GlobalSpec declares one master-broadcast global slot. Size is the wire
// size in bytes used for control-I/O accounting.
type GlobalSpec struct {
	Name string
	Size int
}

// Combiner merges a newly sent message into a pending one with the same
// destination and type before transmission (Pregel's message combiner).
// It must be commutative and associative over the payload.
type Combiner func(into *Msg, m Msg)

// Schema declares a job's communication shape.
type Schema struct {
	// MessagePayloadBytes gives the wire payload size of each message
	// type, indexed by Msg.Type. A nil/empty slice means the job sends no
	// messages.
	MessagePayloadBytes []int
	// MessageSlots gives the number of live payload slots of each message
	// type, indexed like MessagePayloadBytes; each count is in
	// [0, MaxPayloadSlots]. The engine buffers max(MessageSlots) slots
	// per message. Nil means every type uses MaxPayloadSlots.
	MessageSlots []int
	Aggregators  []AggSpec
	Globals      []GlobalSpec
	// Combiners optionally provides a combiner per message type (nil
	// entries disable combining for that type). Combined messages are
	// merged sender-side, reducing both message count and network bytes;
	// MessagesSent reports post-combine counts. Combining is worker-scoped
	// regardless of chunking: chunks log raw emissions and a fold pass
	// replays them in emission order, so combined results are bit-identical
	// across chunk sizes and stealing.
	Combiners []Combiner
}

// validate checks MessageSlots against the declared message types.
func (s Schema) validate() error {
	if s.MessageSlots == nil {
		return nil
	}
	if len(s.MessageSlots) != len(s.MessagePayloadBytes) {
		return fmt.Errorf("pregel: schema declares slot counts for %d message types but payload sizes for %d",
			len(s.MessageSlots), len(s.MessagePayloadBytes))
	}
	for t, k := range s.MessageSlots {
		if k < 0 || k > MaxPayloadSlots {
			return fmt.Errorf("pregel: message type %d declares %d payload slots, want 0..%d", t, k, MaxPayloadSlots)
		}
	}
	return nil
}

// bufferSlots returns k, the payload slots buffered per message: the
// widest declared type, or MaxPayloadSlots when none are declared.
func (s Schema) bufferSlots() int {
	if s.MessageSlots == nil {
		return MaxPayloadSlots
	}
	k := 0
	for _, n := range s.MessageSlots {
		k = max(k, n)
	}
	return k
}

// Job is a Pregel program: the pair of compute functions plus the
// communication schema. MasterCompute runs once at the beginning of every
// superstep (GPS's master.compute); VertexCompute runs for every vertex
// that is active or has incoming messages.
type Job interface {
	MasterCompute(mc *MasterContext)
	VertexCompute(vc *VertexContext)
	Schema() Schema
}

// Config controls an engine run.
type Config struct {
	// NumWorkers is the number of simulated workers; 0 means GOMAXPROCS.
	NumWorkers int
	// MaxSupersteps aborts runaway jobs; 0 means 1 << 20.
	MaxSupersteps int
	// Seed seeds all randomness (the master RNG and the per-vertex
	// streams behind VertexContext.Rand).
	Seed int64
	// TraceSteps records per-superstep statistics in Stats.Steps.
	TraceSteps bool
	// ChunkSize is the number of vertices per scheduling chunk. 0 picks a
	// default that gives each worker about 16 chunks (at least 64 vertices
	// per chunk). Results and Stats are chunk-size independent except for
	// the reduction order of floating-point AggSum aggregators, which is
	// deterministic per configuration but not bit-portable across chunk
	// geometries.
	ChunkSize int
	// CheckpointEvery takes a recovery checkpoint at the barrier entering
	// supersteps 0, k, 2k, …. 0 disables periodic checkpointing; when a
	// fault plan is configured, a single superstep-0 checkpoint is still
	// taken so rollback is always possible.
	CheckpointEvery int
	// Faults deterministically injects worker failures; each failure is
	// converted into rollback to the last checkpoint and replay.
	Faults FaultPlan
	// MaxRecoveries bounds rollback-replay attempts, after which the run
	// fails cleanly with partial Stats; 0 means 8.
	MaxRecoveries int
	// Deadline is a wall-clock budget for the whole run, checked at every
	// superstep barrier (a superstep in progress is not interrupted);
	// 0 means no deadline.
	Deadline time.Duration
	// Observer, when non-nil, receives a structured trace of the run: one
	// span per engine phase (master, per-worker vertex compute, per-chunk
	// execution with executor/steal attribution, barrier, routing,
	// checkpoint, recovery) plus a final run-scoped span carrying the
	// authoritative totals. Spans are emitted from the barrier goroutine,
	// never concurrently. When nil the engine takes no timestamps and the
	// hot path is identical to an unobserved run.
	Observer obs.Observer
	// MemoryBudget caps the engine's accounted message/inbox/checkpoint
	// memory (see docs/ROBUSTNESS.md). When the budget is exceeded the
	// governor degrades in stages — release routed outbox retention,
	// spill inboxes to a temp-file segment store — and aborts with
	// ErrBudgetExceeded (carrying partial Stats) only when even a fully
	// spilled engine does not fit. 0 disables the governor. Accounting is
	// a pure function of configuration and seed, so governed runs remain
	// deterministic.
	MemoryBudget int64
	// Watchdog enables the superstep watchdog: a per-superstep deadline
	// derived from a trailing EWMA of superstep wall time; a superstep
	// exceeding it is diagnosed (per-worker phase, chunk cursor, inbox
	// depth) and converted into supervised rollback-and-replay with
	// capped exponential backoff, bounded by MaxRecoveries.
	Watchdog bool
	// StepDeadline overrides the watchdog's EWMA-derived deadline with a
	// fixed per-superstep budget; setting it implies Watchdog.
	StepDeadline time.Duration
	// BackoffBase and BackoffCap shape the watchdog's supervised-recovery
	// backoff: attempt n waits ~min(BackoffBase<<n, BackoffCap) with
	// deterministic seed-derived jitter. Zero values default to
	// 1ms / 250ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Stalls deterministically injects worker stalls (chaos testing):
	// the target worker's first chunk of the given superstep sleeps for
	// the configured duration. Each stall fires at most once.
	Stalls []Stall
}

func (c Config) withDefaults() Config {
	if c.NumWorkers <= 0 {
		c.NumWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 1 << 20
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 8
	}
	return c
}

// StepStats records one superstep's traffic. Every field is a
// deterministic counter — no wall times — so a crash-and-recover run
// reproduces the fault-free Steps slice bit for bit (timing lives in the
// Observer trace, which keeps rolled-back work visible instead).
type StepStats struct {
	Messages     int64
	NetworkBytes int64
	VertexCalls  int64
	NetworkMsgs  int64
	LocalBytes   int64
	ControlBytes int64
}

// PhaseLabeler is optionally implemented by jobs that know which logical
// state a superstep executes (the machine executor reports the compiled
// state-machine state picked by master.compute). The engine queries it
// after the master phase and attaches the label to that superstep's
// master, vertex-compute, and chunk spans.
type PhaseLabeler interface {
	PhaseLabel() string
}

// Stats summarizes a run. NetworkBytes counts serialized bytes of
// messages whose endpoints live on different workers (4-byte destination
// id, a 1-byte type tag when the job declares more than one message type,
// then the schema payload). ControlBytes counts global broadcast and
// aggregator traffic.
type Stats struct {
	Supersteps    int
	MessagesSent  int64
	NetworkMsgs   int64
	NetworkBytes  int64
	LocalBytes    int64
	ControlBytes  int64
	VertexCalls   int64
	ReturnedInt   int64
	ReturnedFloat float64
	ReturnedIsSet bool
	ReturnedIsInt bool
	Steps         []StepStats

	// Fault-tolerance accounting. Checkpoints and CheckpointBytes count
	// every checkpoint taken (engine state + job snapshot, serialized);
	// Recoveries counts rollbacks and RecoveredSupersteps the supersteps
	// re-executed because of them. These four are monotone: a rollback
	// rewinds every other counter to its checkpointed value but never
	// these. A fault-injected run therefore finishes with the same
	// Supersteps/Messages/Bytes/Returned* as an unfailed run, plus a
	// nonzero recovery bill.
	Checkpoints         int
	CheckpointBytes     int64
	Recoveries          int
	RecoveredSupersteps int

	// Governor and watchdog accounting, monotone like the four counters
	// above (never rewound by rollback). All four stay zero unless
	// MemoryBudget or the watchdog is enabled, so they never perturb
	// bit-identical Stats comparisons of ungoverned runs.
	// MemoryPeakBytes is the high-water accounted usage observed at
	// govern points, before any degradation.
	Spills          int
	SpillBytes      int64
	MemoryPeakBytes int64
	WatchdogStalls  int
}

type aggCell struct {
	set bool
	i   int64
	f   float64
}

//gm:noalloc
func (c *aggCell) merge(spec AggSpec, o aggCell) {
	if !o.set {
		return
	}
	if !c.set {
		*c = o
		return
	}
	switch spec.Op {
	case AggSum:
		c.i += o.i
		c.f += o.f
	case AggMin:
		if o.i < c.i {
			c.i = o.i
		}
		if o.f < c.f {
			c.f = o.f
		}
	case AggMax:
		if o.i > c.i {
			c.i = o.i
		}
		if o.f > c.f {
			c.f = o.f
		}
	case AggOr:
		if o.i != 0 {
			c.i = 1
		}
	case AggAnd:
		if o.i == 0 {
			c.i = 0
		}
	case AggAny:
		*c = o
	}
}

// fastDiv divides nonnegative 32-bit integers by a fixed divisor with a
// Lemire-style multiply-high, replacing the hardware DIV/MOD that would
// otherwise run once or twice per message in the hot paths (send picks
// the owning worker with id mod W and routing recovers the local index
// with id / W).
type fastDiv struct {
	m uint64 // ceil(2^64 / d); 0 means d == 1 (identity divide)
	d uint32
}

func newFastDiv(d uint32) fastDiv {
	if d <= 1 {
		return fastDiv{d: 1}
	}
	return fastDiv{m: ^uint64(0)/uint64(d) + 1, d: d}
}

// div returns x / d.
//
//gm:noalloc
func (f fastDiv) div(x uint32) uint32 {
	if f.m == 0 {
		return x
	}
	hi, _ := bits.Mul64(f.m, uint64(x))
	return uint32(hi)
}

// mod returns x % d.
//
//gm:noalloc
func (f fastDiv) mod(x uint32) uint32 { return x - f.div(x)*f.d }

// phaseKind selects the work the parked executor pool runs on wake-up.
type phaseKind uint8

const (
	phaseVertex      phaseKind = iota // chunked vertex compute (incl. fold + counter merge)
	phaseRouteCount                   // routing: per-(dest, source-shard) counts
	phaseRoutePrefix                  // routing: offsets, inbox resize, reactivation
	phaseRoutePlace                   // routing: stable placement into the CSR inbox
)

// poolCmd is one barrier release: the phase to run and its superstep.
type poolCmd struct {
	kind phaseKind
	step int
}

// defaultChunksPerWorker and minChunkSize shape the automatic chunk
// size: about 16 chunks per worker, but never chunks smaller than 64
// vertices (below that, claim overhead dominates).
const (
	defaultChunksPerWorker = 16
	minChunkSize           = 64
)

func chunkSizeFor(cfgChunk, nw int) int {
	if cfgChunk > 0 {
		return cfgChunk
	}
	c := (nw + defaultChunksPerWorker - 1) / defaultChunksPerWorker
	if c < minChunkSize {
		c = minChunkSize
	}
	return c
}

// maxRouteShards bounds the source-shard fan-out of the routing staging
// (and the retained per-shard counting-sort scratch): source workers are
// grouped into at most this many contiguous shards, each with its own
// count row per destination, so shard counters never write the same
// cache lines.
const maxRouteShards = 8

// shardBounds groups w workers into n contiguous source shards for the
// routing staging: bounds[s]..bounds[s+1] is shard s's worker range.
// Shards are balanced (sizes differ by at most one) and the mapping is
// a pure function of (w, n), so shard geometry — like chunk geometry —
// never depends on execution order.
func shardBounds(w, n int) []int32 {
	bounds := make([]int32, n+1)
	for s := 0; s <= n; s++ {
		bounds[s] = int32(s * w / n)
	}
	return bounds
}

// engine holds one run's state.
type engine struct {
	g      *graph.Directed
	job    Job
	cfg    Config
	schema Schema

	numWorkers int
	msgTag     int // 1 if >1 message type, else 0
	div        fastDiv
	baseSize   int64   // wire bytes independent of payload: 4-byte dst + optional tag
	msgSize    []int64 // full wire size per declared message type
	combActive bool    // the job registers at least one combiner
	slots      int     // k: payload slots buffered per message
	tagged     bool    // buffers store a type tag (the schema does not declare exactly one type)
	// width is the declared slot count per type (nil when MessageSlots
	// is); slots beyond it are zeroed at send.
	width []uint8

	// Source-shard geometry for routing: workers are grouped into shards
	// contiguous shard ranges (shardStart[s]..shardStart[s+1]).
	shards     int
	shardStart []int32

	workers   []*worker
	executors []*executor
	// phaseWG is the reusable barrier the master waits on after releasing
	// the persistent executors into a phase.
	phaseWG sync.WaitGroup
	// taskCursor is the shared queue cursor for phases whose tasks are not
	// chunk claims (fold, routing sub-phases); reset before each dispatch.
	taskCursor atomic.Int64
	stopped    bool

	globals     []uint64
	globalBytes int64 // accumulated control bytes from SetGlobal*

	aggValues []aggCell // merged values visible to master

	masterSrc  *countingSource
	masterRand *rand.Rand
	mc         MasterContext // reused across supersteps (no per-step alloc)
	halted     bool
	retSet     bool
	retIsInt   bool
	retInt     int64
	retFloat   float64

	// Fault tolerance. ckptPrev retains the previous snapshot as the
	// fallback target when the current one fails its integrity check.
	ckptOn   bool
	ckpt     *checkpoint
	ckptPrev *checkpoint
	faults   []faultState
	stalls   []stallState

	// Resource governance and supervision. mark is the last
	// completed-barrier snapshot of the semantic counters; an aborting
	// run reports it instead of a partially merged barrier state.
	gov     *governor
	wd      *watchdog
	wdEpoch time.Time
	mark    commitMark

	// Observability. obsOn caches cfg.Observer != nil so the hot path
	// tests a bool, not an interface; runStart anchors span timestamps.
	obsOn    bool
	runStart time.Time

	stats Stats
}

// nowNS returns nanoseconds since the run started (span timebase).
//
//gm:nondeterministic-ok observability timebase only: spans and skew reports, never Stats or vertex state
//gm:noalloc
func (e *engine) nowNS() int64 { return time.Since(e.runStart).Nanoseconds() }

// emit forwards a span to the configured observer. Only called when
// obsOn; all call sites run on the barrier goroutine, so observers never
// see concurrent calls.
func (e *engine) emit(s obs.Span) { e.cfg.Observer.ObserveSpan(s) }

// chunk is one fixed-size slice of a worker's vertices: the unit of
// vertex-phase scheduling. All mutable state a chunk's execution touches
// lives either here or in per-vertex job state, so any executor can run
// the chunk; the barrier merges chunk state in canonical (worker, chunk)
// order, which makes results independent of the execution schedule.
// Every slice is retained across supersteps.
type chunk struct {
	lo, hi int32 // local-index range [lo, hi)

	// boxes are the per-destination-worker outboxes (plain jobs); raw is
	// the emission log (combiner jobs, multi-chunk workers) replayed by
	// the fold phase.
	boxes []msgBox
	raw   msgBox
	agg   []aggCell
	// numActive counts active vertices in [lo, hi), maintained
	// incrementally by chunk execution, VoteToHalt, and routing
	// reactivation.
	numActive int32

	// per-step counters, merged into the owning worker (and cleared) by
	// the worker epilogue when the worker's last chunk retires
	msgs, netMsgs, netBytes, localBytes, calls int64

	// span attribution for the last vertex phase. spanMsgs/spanBytes/
	// spanCalls snapshot the counters at merge time so chunk spans stay
	// attributable after the epilogue cleared them.
	startNS, durNS                 int64
	executor                       int32
	spanMsgs, spanBytes, spanCalls int64

	err error
}

// worker owns a partition of the vertices: ids with id mod W == index
// (local index = id / W). Vertex-phase execution is chunked; the
// worker's cursor is the shared claim queue its own executor drains
// first and idle executors steal from. Every slice and map below is retained across
// supersteps — the steady-state superstep allocates nothing.
type worker struct {
	e      *engine
	index  int
	ids    []graph.NodeID // global IDs owned, ascending
	single bool           // exactly one chunk: combiner sends skip the raw log

	active []bool
	// numActive mirrors the sum of chunk numActive counters; refreshed at
	// the termination check and by checkpoint decode.
	numActive int
	// The routed inbox, CSR by local vertex: message p of the inbox has
	// payload inPay[p*k:(p+1)*k] and, in tagged runs, type inTyp[p]; the
	// destination is implied by its row. inOff[li]..inOff[li+1] is vertex
	// li's row.
	inPay   []uint64
	inTyp   []uint8
	inOff   []int32 // CSR offsets, len = len(ids)+1
	inTotal int     // messages routed into the inbox by the last routing phase

	chunks []chunk
	// cursor is the next unclaimed chunk index (vertex phase).
	cursor atomic.Int32
	// pendingChunks counts this worker's chunks not yet retired this
	// vertex phase; the executor that retires the last one runs the
	// worker epilogue (fold and counter/aggregator merge).
	pendingChunks atomic.Int32
	// crashed marks an injected fault: the worker's remaining chunks are
	// skipped, emulating the machine death rollback will repair.
	crashed atomic.Bool

	// Combiner-path state: chunks log raw emissions and the fold phase
	// replays them here in emission order (single-chunk workers write
	// directly). combineIdx maps (dst, type) to the pending outbox slot;
	// cleared (not reallocated) each superstep.
	outboxes   []msgBox // per destination worker; combiner jobs only
	combineIdx map[uint64]combineSlot
	pending    *Msg // combineInto's scratch; combiner jobs only

	// Hot-path caches copied from the engine at construction so send
	// touches one cache line instead of chasing e.schema.
	div       fastDiv
	combiners []Combiner // nil when the job registers none
	msgSize   []int64
	baseSize  int64
	k         int
	tagged    bool
	width     []uint8

	// Per-superstep counter accumulators. The combiner fold/direct path
	// feeds them during compute; the worker epilogue folds the chunk
	// counters in on top (in chunk order); the barrier then merges one
	// partial per worker — O(W) instead of O(total chunks).
	msgs, netMsgs, netBytes, localBytes, calls int64
	foldStartNS, foldDurNS                     int64
	// aggPartial is this worker's aggregator partial: chunk cells folded
	// in chunk order by the epilogue, merged (and cleared) in worker
	// order at the barrier.
	aggPartial []aggCell

	// Routing staging, retained across supersteps. srcCounts[s] is the
	// counting-sort row for source shard s: per destination vertex, the
	// messages shard s sends here. srcMsgs[s] is that shard's total — a
	// zero total means the row was skipped (left stale) by the count
	// pass and must be skipped by prefix/place too. Each row is written
	// by exactly one shard's counter, so counters never contend.
	srcCounts [][]int32
	srcMsgs   []int32

	// faultAt is the local vertex index at which an armed injected fault
	// fires this superstep; -1 when no fault is armed.
	faultAt int

	// Extended fault-injection arming (see fault.go). chunkFaultAt is the
	// chunk index at which an armed chunk-exec fault fires (-1 when
	// unarmed); stealFault crashes the worker when one of its chunks runs
	// on a foreign executor; foldFault crashes it mid-fold; routeFaultOn/
	// routeFault fail it inside the armed routing sub-phase. faultStep
	// records the arming superstep for phases that raise the failure from
	// executor goroutines; phaseErr carries it to the barrier.
	chunkFaultAt int
	stealFault   atomic.Bool
	foldFault    bool
	routeFaultOn bool
	routeFault   FaultPhase
	faultStep    int
	phaseErr     error

	// stallNS is an armed injected stall: whoever executes chunk 0 of
	// this worker sleeps that long first. Written by the barrier
	// goroutine before dispatch, cleared when the phase is collected.
	stallNS int64

	// Governor spill state: when spilled, inPay/inTyp are empty and the
	// routed inbox lives in the spill store segment at spillOff (inOff is
	// retained, so chunk windows remain addressable).
	spilled  bool
	spillOff int64

	// inDepth publishes the inbox depth routed into this worker, for the
	// watchdog's cross-goroutine stall diagnosis.
	inDepth atomic.Int64
}

// ownerOf returns the worker index owning vertex v.
//
//gm:noalloc
func (wk *worker) ownerOf(v graph.NodeID) int { return int(wk.div.mod(uint32(v))) }

// localOf returns the local index of v on its owning worker.
//
//gm:noalloc
func (wk *worker) localOf(v graph.NodeID) int { return int(wk.div.div(uint32(v))) }

// executor is one persistent pool goroutine. Executors are 1:1 with
// workers (executor i drains worker i's chunks first) but under work
// stealing may execute any worker's chunks; state that must be
// per-goroutine rather than per-partition — the reused VertexContext,
// the vertex RNG — lives here.
type executor struct {
	e    *engine
	id   int
	cmds chan poolCmd
	vc   VertexContext

	// Per-vertex RNG: a splitmix64 source lazily reseeded on the first
	// Rand() call of each (vertex, superstep), making the stream
	// independent of chunk geometry, stealing, and worker count.
	rngSrc   vertexSource
	rng      *rand.Rand
	rngID    graph.NodeID
	rngStep  int
	seedBase uint64

	// curPhase publishes the phaseKind this executor is running (-1 when
	// parked), for the watchdog's stall diagnosis.
	curPhase atomic.Int32

	// Retained scratch for reading spilled inbox windows: the decoded
	// payload (stride k) and tags the view reads, and the raw records.
	spillPay []uint64
	spillTyp []uint8
	spillRaw []byte

	err error
}

// vertexSource is a splitmix64 math/rand Source. It deliberately does
// not implement Source64: rand.Rand then derives every method from
// Int63, so reseeding fully determines the stream.
type vertexSource struct{ state uint64 }

//gm:noalloc
func (s *vertexSource) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

//gm:noalloc
func (s *vertexSource) Seed(seed int64) { s.state = uint64(seed) }

//gm:noalloc
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes the job on g to completion and returns run statistics.
// It returns an error if the job exceeds MaxSupersteps, a compute
// function panics, the deadline expires, or the recovery budget is
// exhausted. Even on error, Stats.Returned* reflect whatever the master
// recorded before the abort, so callers see partial results
// consistently.
func Run(g *graph.Directed, job Job, cfg Config) (Stats, error) {
	return RunContext(context.Background(), g, job, cfg)
}

// RunContext is Run with cooperative cancellation: ctx (and
// Config.Deadline, when set) is checked at every superstep barrier; a
// superstep in progress is never interrupted mid-phase.
func RunContext(ctx context.Context, g *graph.Directed, job Job, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if err := job.Schema().validate(); err != nil {
		return Stats{}, err
	}
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	e := newEngine(g, job, cfg)
	defer e.stop()
	err := e.loop(ctx)
	// Partial results: report the master's recorded return value even
	// when the run aborted.
	e.stats.ReturnedIsSet = e.retSet
	e.stats.ReturnedIsInt = e.retIsInt
	e.stats.ReturnedInt = e.retInt
	e.stats.ReturnedFloat = e.retFloat
	if e.obsOn {
		// Run-scoped span with the authoritative totals; emitted even on
		// abort so observers can close out partial runs.
		e.emit(obs.Span{
			Superstep:   e.stats.Supersteps,
			Worker:      -1,
			Phase:       obs.PhaseRun,
			DurNS:       e.nowNS(),
			Messages:    e.stats.MessagesSent,
			Bytes:       e.stats.NetworkBytes,
			VertexCalls: e.stats.VertexCalls,
		})
	}
	return e.stats, err
}

func newEngine(g *graph.Directed, job Job, cfg Config) *engine {
	e := &engine{g: g, job: job, cfg: cfg, schema: job.Schema()}
	e.numWorkers = cfg.NumWorkers
	if n := g.NumNodes(); e.numWorkers > n && n > 0 {
		e.numWorkers = n
	}
	if len(e.schema.MessagePayloadBytes) > 1 {
		e.msgTag = 1
	}
	e.div = newFastDiv(uint32(e.numWorkers))
	e.baseSize = int64(4 + e.msgTag)
	e.msgSize = make([]int64, len(e.schema.MessagePayloadBytes))
	for t, p := range e.schema.MessagePayloadBytes {
		e.msgSize[t] = e.baseSize + int64(p)
	}
	e.slots = e.schema.bufferSlots()
	e.tagged = len(e.schema.MessagePayloadBytes) != 1
	if e.schema.MessageSlots != nil {
		e.width = make([]uint8, len(e.schema.MessageSlots))
		for t, n := range e.schema.MessageSlots {
			e.width[t] = uint8(n)
		}
	}
	e.mc = MasterContext{e: e}
	var combiners []Combiner
	for _, c := range e.schema.Combiners {
		if c != nil {
			combiners = e.schema.Combiners
			break
		}
	}
	e.combActive = combiners != nil
	e.shards = e.numWorkers
	if e.shards > maxRouteShards {
		e.shards = maxRouteShards
	}
	if e.shards < 1 {
		e.shards = 1
	}
	e.shardStart = shardBounds(e.numWorkers, e.shards)
	e.globals = make([]uint64, len(e.schema.Globals))
	e.aggValues = make([]aggCell, len(e.schema.Aggregators))
	e.masterSrc = newCountingSource(cfg.Seed)
	e.masterRand = rand.New(e.masterSrc) //gm:nondeterministic-ok wraps the seeded, draw-counted master source; replayable from checkpoints
	// Watchdog trips and injected stalls are repaired by rollback, so
	// either forces at least the superstep-0 checkpoint.
	e.ckptOn = cfg.CheckpointEvery > 0 || len(cfg.Faults) > 0 ||
		cfg.Watchdog || cfg.StepDeadline > 0 || len(cfg.Stalls) > 0
	e.obsOn = cfg.Observer != nil
	if e.obsOn {
		e.runStart = time.Now() //gm:nondeterministic-ok span timebase for observability output only; never feeds Stats
	}
	e.faults = make([]faultState, len(cfg.Faults))
	for i, f := range cfg.Faults {
		e.faults[i] = faultState{Fault: f}
	}
	e.stalls = make([]stallState, len(cfg.Stalls))
	for i, s := range cfg.Stalls {
		e.stalls[i] = stallState{Stall: s}
	}
	if cfg.MemoryBudget > 0 {
		e.gov = &governor{budget: cfg.MemoryBudget}
	}
	if cfg.Watchdog || cfg.StepDeadline > 0 {
		e.wdEpoch = time.Now() //gm:nondeterministic-ok watchdog timebase: feeds deadlines and diagnosis text only, never Stats semantics
		e.wd = newWatchdog(e, cfg.StepDeadline)
	}

	// Partitioning: worker w owns the IDs congruent to w mod W.
	n := g.NumNodes()
	e.workers = make([]*worker, e.numWorkers)
	for w := 0; w < e.numWorkers; w++ {
		wk := &worker{e: e, index: w, faultAt: -1, chunkFaultAt: -1}
		if n > w {
			wk.ids = make([]graph.NodeID, 0, (n-w+e.numWorkers-1)/e.numWorkers)
		}
		for v := graph.NodeID(w); int(v) < n; v += graph.NodeID(e.numWorkers) {
			wk.ids = append(wk.ids, v)
		}
		wk.active = make([]bool, len(wk.ids))
		for i := range wk.active {
			wk.active[i] = true
		}
		wk.numActive = len(wk.ids)
		wk.inOff = make([]int32, len(wk.ids)+1)
		if combiners != nil {
			wk.outboxes = make([]msgBox, e.numWorkers)
			wk.combineIdx = make(map[uint64]combineSlot)
			wk.pending = new(Msg)
		}
		wk.div = e.div
		wk.combiners = combiners
		wk.msgSize = e.msgSize
		wk.baseSize = e.baseSize
		wk.k = e.slots
		wk.tagged = e.tagged
		wk.width = e.width

		// Chunk geometry: fixed for the run, derived only from the
		// partition size and ChunkSize, never from execution.
		nw := len(wk.ids)
		cs := chunkSizeFor(cfg.ChunkSize, nw)
		numChunks := 0
		if nw > 0 {
			numChunks = (nw + cs - 1) / cs
		}
		wk.chunks = make([]chunk, numChunks)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			ck.lo = int32(ci * cs)
			ck.hi = int32((ci + 1) * cs)
			if ck.hi > int32(nw) {
				ck.hi = int32(nw)
			}
			ck.numActive = ck.hi - ck.lo
			ck.agg = make([]aggCell, len(e.schema.Aggregators))
			if combiners == nil {
				ck.boxes = make([]msgBox, e.numWorkers)
			}
		}
		wk.single = numChunks == 1
		wk.aggPartial = make([]aggCell, len(e.schema.Aggregators))

		wk.srcCounts = make([][]int32, e.shards)
		for s := range wk.srcCounts {
			wk.srcCounts[s] = make([]int32, nw)
		}
		wk.srcMsgs = make([]int32, e.shards)
		e.workers[w] = wk
	}

	// The persistent pool: one executor goroutine per worker for the
	// whole run, parked on its command channel between phases.
	// engine.stop (deferred by RunContext) shuts them down on every exit
	// path.
	e.executors = make([]*executor, e.numWorkers)
	for i := 0; i < e.numWorkers; i++ {
		x := &executor{e: e, id: i, rngStep: -1, seedBase: mix64(uint64(cfg.Seed) ^ 0x5bf03635aca1fd6b)}
		x.rng = rand.New(&x.rngSrc) //gm:nondeterministic-ok wraps the per-vertex reseeded source (seedBase ^ step ^ id); schedule-independent by construction
		x.vc = VertexContext{ex: x}
		x.cmds = make(chan poolCmd, 1)
		x.curPhase.Store(-1)
		e.executors[i] = x
	}
	for _, x := range e.executors {
		go x.poolRun()
	}
	if e.wd != nil {
		go e.wd.run()
	}
	return e
}

// stop shuts the persistent executor pool down. Idempotent; called on
// every run-exit path (normal, error, panic-converted, recovery-budget
// exhaustion) and only ever between phases, so no executor is
// mid-command.
func (e *engine) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	if e.wd != nil {
		close(e.wd.stopc)
		<-e.wd.exited
	}
	if e.gov != nil {
		e.gov.spill.close()
	}
	for _, x := range e.executors {
		close(x.cmds)
	}
}

// runPhase releases every parked executor into one phase and waits for
// all of them at the reusable barrier.
func (e *engine) runPhase(kind phaseKind, step int) {
	e.taskCursor.Store(0)
	e.phaseWG.Add(len(e.executors))
	for _, x := range e.executors {
		x.cmds <- poolCmd{kind: kind, step: step}
	}
	e.phaseWG.Wait()
}

// runVertexPhase runs one chunked vertex-compute phase: the superstep's
// compute work, plus — riding the same dispatch — the combiner fold and
// the per-worker counter/aggregator merge, each triggered as a worker's
// last chunk retires instead of waiting behind an extra pool barrier.
func (e *engine) runVertexPhase(step int) {
	for _, wk := range e.workers {
		wk.cursor.Store(0)
		wk.pendingChunks.Store(int32(len(wk.chunks)))
	}
	// A chunkless worker (every worker of an empty graph) never retires a
	// chunk, so its epilogue runs here, before dispatch, on the barrier
	// goroutine.
	for _, wk := range e.workers {
		if len(wk.chunks) == 0 {
			e.workerEpilogue(wk)
		}
	}
	e.runPhase(phaseVertex, step)
}

// poolRun is an executor's persistent goroutine: park, run the commanded
// phase, signal the barrier, repeat until the channel closes.
func (x *executor) poolRun() {
	for cmd := range x.cmds {
		x.runCmd(cmd)
		x.e.phaseWG.Done()
	}
}

// runCmd executes one phase command, converting any panic into an
// executor error so the barrier is always reached (a lost Done would
// deadlock the master). Vertex-chunk panics are caught closer to the
// work, in runChunk, so one chunk's panic does not abandon the phase.
func (x *executor) runCmd(cmd poolCmd) {
	x.curPhase.Store(int32(cmd.kind))
	defer func() {
		x.curPhase.Store(-1)
		if r := recover(); r != nil && x.err == nil {
			x.err = fmt.Errorf("pregel: executor %d panicked in %v phase: %v", x.id, cmd.kind, r)
		}
	}()
	switch cmd.kind {
	case phaseVertex:
		x.vertexPhase(cmd.step)
	case phaseRouteCount:
		x.routePhase(phaseRouteCount)
	case phaseRoutePrefix:
		x.prefixPhase()
	case phaseRoutePlace:
		x.routePhase(phaseRoutePlace)
	}
}

func (k phaseKind) String() string {
	switch k {
	case phaseVertex:
		return "vertex"
	case phaseRouteCount:
		return "route-count"
	case phaseRoutePrefix:
		return "route-prefix"
	case phaseRoutePlace:
		return "route-place"
	}
	return "unknown"
}

// vertexPhase drains the executor's own worker's chunk queue, then
// repeatedly steals a chunk from the worker with the most unclaimed
// chunks (ties broken by lowest worker index). Which executor runs a
// chunk never affects results — only the chunk's span attribution.
//
//gm:noalloc
func (x *executor) vertexPhase(step int) {
	e := x.e
	own := e.workers[x.id]
	for {
		ci := int(own.cursor.Add(1)) - 1
		if ci >= len(own.chunks) {
			break
		}
		x.runChunk(own, ci, step)
		x.retireChunk(own)
	}
	for {
		victim := -1
		var most int32
		for i, wk := range e.workers {
			if i == x.id {
				continue
			}
			if rem := int32(len(wk.chunks)) - wk.cursor.Load(); rem > most {
				most, victim = rem, i
			}
		}
		if victim < 0 {
			return
		}
		wk := e.workers[victim]
		ci := int(wk.cursor.Add(1)) - 1
		if ci >= len(wk.chunks) {
			continue // lost the claim race; rescan
		}
		x.runChunk(wk, ci, step)
		x.retireChunk(wk)
	}
}

// retireChunk marks one of wk's chunks done. The atomic decrement chain
// makes every earlier chunk's writes visible to whichever executor
// performs the final decrement; that executor runs the worker epilogue.
//
//gm:noalloc
func (x *executor) retireChunk(wk *worker) {
	if wk.pendingChunks.Add(-1) == 0 {
		x.e.workerEpilogue(wk)
	}
}

// runChunk executes one vertex-compute chunk. A panic in job code is
// recorded on the chunk (and surfaced in canonical order at the
// barrier); an injected fault marks the whole worker crashed so its
// remaining chunks are skipped, as they would be on a dead machine.
//
//gm:noalloc
func (x *executor) runChunk(wk *worker, ci, step int) {
	e := x.e
	ck := &wk.chunks[ci]
	ck.executor = int32(x.id)
	var t0 int64
	if e.obsOn {
		t0 = e.nowNS()
	}
	defer func() {
		if r := recover(); r != nil && ck.err == nil {
			ck.err = fmt.Errorf("pregel: vertex compute panicked on worker %d chunk %d: %v", wk.index, ci, r) //gm:alloc-ok panic recovery path; a steady-state run never reaches it
		}
		if e.obsOn {
			ck.startNS = t0
			ck.durNS = e.nowNS() - t0
		}
	}()
	// Truncate the chunk's outbound state from the previous superstep
	// (routing has long completed; capacity is retained). Single-chunk
	// combiner workers write worker-level state directly, so reset it
	// here; multi-chunk workers reset it in the fold phase.
	for d := range ck.boxes {
		ck.boxes[d].reset()
	}
	ck.raw.reset()
	if wk.single && wk.combineIdx != nil {
		for d := range wk.outboxes {
			wk.outboxes[d].reset()
		}
		clear(wk.combineIdx)
	}
	if wk.crashed.Load() {
		return
	}
	// Injected stall (chaos testing): whoever executes the stalled
	// worker's first chunk sleeps, overrunning the watchdog deadline.
	if wk.stallNS > 0 && ci == 0 {
		time.Sleep(time.Duration(wk.stallNS))
	}
	// Injected steal fault: the worker dies the moment one of its chunks
	// runs on a foreign executor.
	if x.id != wk.index && wk.stealFault.Load() && wk.stealFault.CompareAndSwap(true, false) {
		ck.err = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultSteal} //gm:alloc-ok fault-injection testing path; never armed in production runs
		wk.crashed.Store(true)
		return
	}
	// Injected chunk-exec fault: the worker dies entering its middle
	// chunk, with earlier chunks fully executed.
	if wk.chunkFaultAt >= 0 && ci == wk.chunkFaultAt {
		ck.err = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultChunkExec} //gm:alloc-ok fault-injection testing path; never armed in production runs
		wk.crashed.Store(true)
		return
	}
	// Spilled inbox: stream this chunk's contiguous window back from the
	// segment store into executor-local scratch (inOff stays global, so
	// the message views below rebase against the window start).
	pay, typ := wk.inPay, wk.inTyp
	var base int32
	if wk.spilled {
		var err error
		pay, typ, err = x.readSpillWindow(wk, ck) //gm:alloc-ok post-degradation path: spill read-back grows retained scratch to its high-water mark
		if err != nil {
			ck.err = err
			return
		}
		base = wk.inOff[ck.lo]
	}
	vc := &x.vc
	vc.wk = wk
	vc.ck = ck
	vc.superstep = step
	fault := wk.faultAt
	for li := int(ck.lo); li < int(ck.hi); li++ {
		if fault >= 0 && li == fault {
			// Injected crash mid-phase: job state and outboxes stay
			// partially mutated; rollback undoes the damage.
			ck.err = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultVertexCompute} //gm:alloc-ok fault-injection testing path; never armed in production runs
			wk.crashed.Store(true)
			return
		}
		hasMsgs := wk.inOff[li+1] > wk.inOff[li]
		if !wk.active[li] && !hasMsgs {
			continue
		}
		if !wk.active[li] {
			wk.active[li] = true
			ck.numActive++
		}
		vc.id = wk.ids[li]
		vc.local = li
		vc.msgs.window(pay, typ, wk.inOff[li]-base, wk.inOff[li+1]-base, wk.k)
		ck.calls++
		e.job.VertexCompute(vc) //gm:alloc-ok job contract: VertexCompute must be allocation-free; perf_test gates the full cycle at AllocsPerRun==0
	}
}

// workerEpilogue runs when wk's last chunk of the vertex phase retires:
// it folds the worker's raw combiner logs (multi-chunk combiner workers)
// and merges the chunk counters and aggregator cells into the
// worker-level partials in canonical chunk order. Everything here reads
// and writes state owned by wk (made visible by the retirement decrement
// chain), so it is safe to run while other workers' chunks are still
// computing.
//
//gm:noalloc
func (e *engine) workerEpilogue(wk *worker) {
	if wk.combiners != nil && !wk.single {
		wk.fold()
	}
	for ci := range wk.chunks {
		ck := &wk.chunks[ci]
		wk.msgs += ck.msgs
		wk.netMsgs += ck.netMsgs
		wk.netBytes += ck.netBytes
		wk.localBytes += ck.localBytes
		wk.calls += ck.calls
		ck.spanMsgs, ck.spanBytes, ck.spanCalls = ck.msgs, ck.netBytes, ck.calls
		ck.msgs, ck.netMsgs, ck.netBytes, ck.localBytes, ck.calls = 0, 0, 0, 0, 0
		for s := range ck.agg {
			wk.aggPartial[s].merge(e.schema.Aggregators[s], ck.agg[s])
			ck.agg[s] = aggCell{}
		}
	}
}

// fold replays this worker's chunk raw logs, in chunk order, through the
// worker-scoped combining send. The replay sequence equals the worker's
// vertex emission order, so combined payloads, post-combine message
// counts, and byte accounting are bit-identical to an unchunked run.
//
//gm:noalloc
func (wk *worker) fold() {
	if wk.e.obsOn {
		wk.foldStartNS = wk.e.nowNS()
	}
	for d := range wk.outboxes {
		wk.outboxes[d].reset()
	}
	clear(wk.combineIdx)
	// Injected fold fault: die midway through the replay, with outboxes
	// partially folded. Aborting here is safe — fold faults are collected
	// before the barrier, so the partial outboxes are never routed.
	limit := -1
	if wk.foldFault {
		total := 0
		for ci := range wk.chunks {
			total += wk.chunks[ci].raw.len()
		}
		limit = total / 2
	}
	replayed := 0
	// m is rebuilt in place for each logged message; its slots at and
	// beyond k are never written and stay 0.
	var m Msg
	k := wk.k
	for ci := range wk.chunks {
		raw := &wk.chunks[ci].raw
		for i, d := range raw.dst {
			if replayed == limit {
				wk.foldFault = false
				wk.phaseErr = &InjectedFault{Superstep: wk.faultStep, Worker: wk.index, Phase: FaultFold} //gm:alloc-ok fault-injection testing path; never armed in production runs
				return
			}
			m.Dst = d
			if wk.tagged {
				m.Type = raw.typ[i]
			}
			for s, v := range raw.pay[i*k : (i+1)*k] {
				m.V[s] = v
			}
			wk.foldSend(&m)
			replayed++
		}
		raw.reset()
	}
	if wk.e.obsOn {
		wk.foldDurNS = wk.e.nowNS() - wk.foldStartNS
	}
}

type combineSlot struct {
	dw  int
	idx int
}

// foldSend appends m to the outbox of m.Dst's owning worker, combining
// with a pending message of the same (dst, type) when the job registers
// a combiner for it. It is the worker-scoped half of the combiner path:
// called directly by single-chunk workers during vertex compute, and by
// fold when replaying chunk logs. Allocation-free once outbox/index
// capacity has reached its high-water mark.
//
//gm:noalloc
func (wk *worker) foldSend(m *Msg) {
	dw := wk.ownerOf(m.Dst)
	if cs := wk.combiners; cs != nil && int(m.Type) < len(cs) && cs[m.Type] != nil {
		key := uint64(uint32(m.Dst))<<8 | uint64(m.Type)
		if slot, ok := wk.combineIdx[key]; ok {
			wk.combineInto(&wk.outboxes[slot.dw], slot.idx, cs[m.Type], m)
			return
		}
		wk.combineIdx[key] = combineSlot{dw: dw, idx: wk.outboxes[dw].len()} //gm:alloc-ok insert after clear() reuses retained buckets; grows only until the high-water mark
	}
	wk.outboxes[dw].push(m.Dst, m.Type, m.V[:wk.k], wk.tagged)
	wk.msgs++
	size := wk.baseSize
	if int(m.Type) < len(wk.msgSize) {
		size = wk.msgSize[m.Type]
	}
	if dw != wk.index {
		wk.netMsgs++
		wk.netBytes += size
	} else {
		wk.localBytes += size
	}
}

// combineInto folds m into pending message i of b: the combiner sees
// the pending message rebuilt from its buffered slots in worker-owned
// scratch (a local would escape through the dynamic call), and its
// result, trimmed to the type's declared width, is written back in
// place.
//
//gm:noalloc
func (wk *worker) combineInto(b *msgBox, i int, c Combiner, m *Msg) {
	into := wk.pending
	into.Dst, into.Type, into.V = m.Dst, m.Type, [MaxPayloadSlots]uint64{}
	slots := b.pay[i*wk.k : (i+1)*wk.k]
	for s, v := range slots {
		into.V[s] = v
	}
	c(into, *m) //gm:alloc-ok job-registered combiner funcs fold in place into the worker's scratch; covered by the runtime alloc gate
	wk.trim(into)
	for s := range slots {
		slots[s] = into.V[s]
	}
}

// trim zeroes the slots of m beyond its type's declared width, so they
// are not delivered.
//
//gm:noalloc
func (wk *worker) trim(m *Msg) {
	if int(m.Type) < len(wk.width) {
		for s := int(wk.width[m.Type]); s < wk.k; s++ {
			m.V[s] = 0
		}
	}
}

// commitMark is a snapshot of the semantic counters at a completed
// barrier (or a restored checkpoint, which is one). An aborting run is
// rewound to the mark, so Stats.Returned*/Supersteps/traffic counters
// never expose a partially merged barrier state; the monotone
// fault-tolerance counters are exempt by design.
type commitMark struct {
	supersteps                                                        int
	messagesSent, networkMsgs, networkBytes, localBytes, controlBytes int64
	vertexCalls                                                       int64
	steps                                                             int
	retSet, retIsInt                                                  bool
	retInt                                                            int64
	retFloat                                                          float64
}

//gm:noalloc
func (e *engine) markCommitted() {
	e.mark.supersteps = e.stats.Supersteps
	e.mark.messagesSent = e.stats.MessagesSent
	e.mark.networkMsgs = e.stats.NetworkMsgs
	e.mark.networkBytes = e.stats.NetworkBytes
	e.mark.localBytes = e.stats.LocalBytes
	e.mark.controlBytes = e.stats.ControlBytes
	e.mark.vertexCalls = e.stats.VertexCalls
	e.mark.steps = len(e.stats.Steps)
	e.mark.retSet = e.retSet
	e.mark.retIsInt = e.retIsInt
	e.mark.retInt = e.retInt
	e.mark.retFloat = e.retFloat
}

func (e *engine) restoreCommitted() {
	e.stats.Supersteps = e.mark.supersteps
	e.stats.MessagesSent = e.mark.messagesSent
	e.stats.NetworkMsgs = e.mark.networkMsgs
	e.stats.NetworkBytes = e.mark.networkBytes
	e.stats.LocalBytes = e.mark.localBytes
	e.stats.ControlBytes = e.mark.controlBytes
	e.stats.VertexCalls = e.mark.vertexCalls
	if len(e.stats.Steps) > e.mark.steps {
		e.stats.Steps = e.stats.Steps[:e.mark.steps]
	}
	e.retSet = e.mark.retSet
	e.retIsInt = e.mark.retIsInt
	e.retInt = e.mark.retInt
	e.retFloat = e.mark.retFloat
}

// loop drives the run to completion. On an aborting error the semantic
// counters are rewound to the last completed barrier, so partial Stats
// are always barrier-consistent.
func (e *engine) loop(ctx context.Context) error {
	e.markCommitted()
	err := e.run(ctx)
	if err != nil {
		e.restoreCommitted()
	}
	return err
}

func (e *engine) run(ctx context.Context) error {
	for step := 0; ; {
		// Everything the engine observes here is a completed-barrier
		// state: the start of the run, the end of a fully merged-and-routed
		// superstep, or a freshly restored checkpoint.
		e.markCommitted()
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pregel: run canceled at superstep %d: %w", step, err)
		}
		if step >= e.cfg.MaxSupersteps {
			return fmt.Errorf("pregel: exceeded %d supersteps", e.cfg.MaxSupersteps)
		}
		if e.checkpointDue(step) {
			var t0, before int64
			if e.obsOn {
				t0 = e.nowNS()
				before = e.stats.CheckpointBytes
			}
			if err := e.takeCheckpoint(step); err != nil {
				return err
			}
			if e.obsOn {
				e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseCheckpoint,
					StartNS: t0, DurNS: e.nowNS() - t0, Bytes: e.stats.CheckpointBytes - before})
			}
		}
		// Govern point 1: the retained checkpoints and last superstep's
		// routed buffers coexist here.
		if e.gov != nil {
			if err := e.govern(step); err != nil {
				return err
			}
		}
		if e.wd != nil {
			e.wd.beginStep(step)
		}
		// Master phase: sees aggregator values contributed last superstep.
		var masterT0 int64
		if e.obsOn {
			masterT0 = e.nowNS()
		}
		halted, err := e.masterPhase(step)
		if err != nil {
			return err
		}
		// The state label is queried after the master phase because the
		// machine executor's master picks the superstep's state there.
		var stateLabel string
		if e.obsOn {
			if pl, ok := e.job.(PhaseLabeler); ok {
				stateLabel = pl.PhaseLabel()
			}
			e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseMaster,
				State: stateLabel, StartNS: masterT0, DurNS: e.nowNS() - masterT0})
		}
		if halted {
			return nil
		}
		// Vertex phase: release the parked pool into the chunk queues.
		e.armVertexFault(step)
		e.armStall(step)
		e.runVertexPhase(step)
		if e.obsOn {
			e.emitVertexSpans(step, stateLabel)
		}
		crashed, err := e.collectPhaseErrors(step)
		if err != nil {
			return err
		}
		if crashed != nil {
			// Disarm before rolling back so the restore never trips the
			// watchdog; an overlapping trip is subsumed by this recovery.
			if e.wd != nil {
				e.wd.endStep()
			}
			resume, err := e.recoverFrom(crashed, step)
			if err != nil {
				return err
			}
			step = resume
			continue
		}
		var barrierT0 int64
		if e.obsOn {
			barrierT0 = e.nowNS()
		}
		e.stats.Supersteps++
		// Batched barrier merge: the worker epilogues already folded each
		// worker's chunk counters and aggregator cells into per-worker
		// partials in canonical chunk order (overlapped with compute);
		// the barrier folds the W partials in worker order — a two-level
		// tree whose merge order is fixed by (worker, chunk) coordinates,
		// so stealing cannot perturb results. Aggregators are
		// per-superstep (Pregel semantics): the master sees only the
		// contributions of the superstep that just ran.
		for s := range e.aggValues {
			e.aggValues[s] = aggCell{}
		}
		var stepMsgs, stepNet, stepCalls, stepNetMsgs, stepLocal int64
		for _, wk := range e.workers {
			stepMsgs += wk.msgs
			stepNet += wk.netBytes
			stepNetMsgs += wk.netMsgs
			stepLocal += wk.localBytes
			stepCalls += wk.calls
			wk.msgs, wk.netMsgs, wk.netBytes, wk.localBytes, wk.calls = 0, 0, 0, 0, 0
			for s := range wk.aggPartial {
				e.aggValues[s].merge(e.schema.Aggregators[s], wk.aggPartial[s])
				wk.aggPartial[s] = aggCell{}
			}
		}
		e.stats.MessagesSent += stepMsgs
		e.stats.NetworkMsgs += stepNetMsgs
		e.stats.NetworkBytes += stepNet
		e.stats.LocalBytes += stepLocal
		e.stats.VertexCalls += stepCalls
		// Aggregator control traffic: one value per set aggregator per
		// non-master worker.
		var stepCtl int64
		for s := range e.aggValues {
			if e.aggValues[s].set {
				stepCtl += int64(8 * (e.numWorkers - 1))
			}
		}
		stepCtl += e.globalBytes
		e.stats.ControlBytes += stepCtl
		e.globalBytes = 0
		if e.cfg.TraceSteps {
			e.stats.Steps = append(e.stats.Steps, StepStats{
				Messages:     stepMsgs,
				NetworkBytes: stepNet,
				VertexCalls:  stepCalls,
				NetworkMsgs:  stepNetMsgs,
				LocalBytes:   stepLocal,
				ControlBytes: stepCtl,
			})
		}
		if e.obsOn {
			e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseBarrier,
				StartNS: barrierT0, DurNS: e.nowNS() - barrierT0})
		}

		if f := e.armRoutingFault(step); f != nil {
			if e.wd != nil {
				e.wd.endStep()
			}
			resume, err := e.recoverFrom(f, step)
			if err != nil {
				return err
			}
			step = resume
			continue
		}
		var routeT0 int64
		if e.obsOn {
			routeT0 = e.nowNS()
		}
		anyMsgs := e.routeMessages()
		if e.obsOn {
			e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseRouting,
				StartNS: routeT0, DurNS: e.nowNS() - routeT0})
		}
		for _, x := range e.executors {
			if x.err != nil {
				return x.err
			}
		}
		// Faults raised inside the routing sub-phases (fail-stop: the
		// sub-phase finished its work, the failure surfaces at the
		// barrier).
		routeCrashed, err := e.collectRoutingFaults()
		if err != nil {
			return err
		}
		if routeCrashed != nil {
			if e.wd != nil {
				e.wd.endStep()
			}
			resume, err := e.recoverFrom(routeCrashed, step)
			if err != nil {
				return err
			}
			step = resume
			continue
		}
		// The superstep's work is done: disarm the watchdog, then govern
		// point 2 (outboxes and the freshly routed inboxes coexist), then
		// convert a detected stall into supervised recovery with
		// deterministic capped-exponential backoff.
		tripped := false
		if e.wd != nil {
			tripped = e.wd.endStep()
		}
		if e.gov != nil {
			if err := e.govern(step); err != nil {
				return err
			}
		}
		if tripped {
			e.stats.WatchdogStalls++
			diag, suspect := e.wd.diagnosis()
			if e.obsOn {
				dur := e.wdNowNS() - e.wd.startNS.Load()
				e.emit(obs.Span{Superstep: step, Worker: suspect, Phase: obs.PhaseWatchdog,
					StartNS: e.nowNS() - dur, DurNS: dur, State: diag})
			}
			f := &InjectedFault{Superstep: step, Worker: suspect, Phase: FaultWatchdog}
			resume, err := e.recoverFrom(f, step)
			if err != nil {
				return err
			}
			time.Sleep(backoffFor(e.cfg.Seed, e.stats.Recoveries-1, e.cfg.BackoffBase, e.cfg.BackoffCap))
			step = resume
			continue
		}
		// Termination check: refresh the per-worker active counters from
		// the chunk counters maintained by runChunk/VoteToHalt/routing —
		// O(total chunks), no vertex scan.
		anyActive := false
		for _, wk := range e.workers {
			na := 0
			for ci := range wk.chunks {
				na += int(wk.chunks[ci].numActive)
			}
			wk.numActive = na
			if na > 0 {
				anyActive = true
			}
		}
		if !anyMsgs && !anyActive {
			return nil
		}
		step++
	}
}

// emitVertexSpans emits the superstep's chunk spans (executor- and
// steal-attributed, from the snapshots the worker epilogue took before
// clearing the live counters) followed by one aggregated vertex-compute
// span per worker, even for a superstep that is about to roll back:
// the trace keeps failed work visible while Stats rewinds.
func (e *engine) emitVertexSpans(step int, stateLabel string) {
	for _, wk := range e.workers {
		var dur int64
		startNS := int64(-1)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseChunk,
				State: stateLabel, StartNS: ck.startNS, DurNS: ck.durNS,
				Messages: ck.spanMsgs, Bytes: ck.spanBytes, VertexCalls: ck.spanCalls,
				Executor: int(ck.executor), Stolen: int(ck.executor) != wk.index})
			dur += ck.durNS
			if startNS < 0 || ck.startNS < startNS {
				startNS = ck.startNS
			}
		}
		// The epilogue already folded chunk counters (and the combiner
		// fold path's worker-level counts) into the worker partials.
		if !wk.single && wk.combiners != nil {
			dur += wk.foldDurNS
		}
		if startNS < 0 {
			startNS = 0
		}
		e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseVertexCompute,
			State: stateLabel, StartNS: startNS, DurNS: dur,
			Messages: wk.msgs, Bytes: wk.netBytes, VertexCalls: wk.calls})
	}
}

// collectPhaseErrors scans executors and chunks (in canonical order)
// after a vertex phase. An injected fault is returned for recovery;
// any other error aborts the run. Fault state is reset so a replay
// starts clean.
func (e *engine) collectPhaseErrors(step int) (*InjectedFault, error) {
	var crashed *InjectedFault
	for _, x := range e.executors {
		if x.err != nil {
			return nil, x.err
		}
	}
	for _, wk := range e.workers {
		wk.stallNS = 0
		// A fault armed on a worker owning too few vertices (faultAt
		// beyond its range) crashes at phase end, like the pre-chunk
		// engine. The same fallback covers a chunk-exec fault on a
		// chunkless worker, a steal fault when nothing was stolen (a
		// single worker, or executors that never ran dry), and a fold
		// fault on a worker that never folds.
		if wk.faultAt >= len(wk.ids) && wk.faultAt >= 0 {
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultVertexCompute}
		}
		if wk.chunkFaultAt >= len(wk.chunks) && wk.chunkFaultAt >= 0 {
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultChunkExec}
		}
		if wk.stealFault.CompareAndSwap(true, false) {
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultSteal}
		}
		if wk.foldFault {
			wk.foldFault = false
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultFold}
		}
		if wk.phaseErr != nil {
			perr := wk.phaseErr
			wk.phaseErr = nil
			var inj *InjectedFault
			if errors.As(perr, &inj) {
				crashed = inj
			} else {
				return nil, perr
			}
		}
		wk.faultAt = -1
		wk.chunkFaultAt = -1
		wk.crashed.Store(false)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			if ck.err == nil {
				continue
			}
			var inj *InjectedFault
			if errors.As(ck.err, &inj) {
				crashed = inj
				ck.err = nil
				continue
			}
			err := ck.err
			ck.err = nil
			return nil, err
		}
	}
	return crashed, nil
}

// collectRoutingFaults scans workers after the routing barrier for
// failures raised inside the count/prefix/place sub-phases. Injected
// faults are returned for recovery; anything else aborts the run.
func (e *engine) collectRoutingFaults() (*InjectedFault, error) {
	var crashed *InjectedFault
	for _, wk := range e.workers {
		wk.routeFaultOn = false
		if wk.phaseErr == nil {
			continue
		}
		perr := wk.phaseErr
		wk.phaseErr = nil
		var inj *InjectedFault
		if errors.As(perr, &inj) {
			crashed = inj
			continue
		}
		return nil, perr
	}
	return crashed, nil
}

// recoverFrom wraps rollback with trace emission: a recovery span
// covering the restore, attributed to the superstep that failed.
func (e *engine) recoverFrom(f *InjectedFault, step int) (int, error) {
	if !e.obsOn {
		return e.rollback(f)
	}
	t0 := e.nowNS()
	resume, err := e.rollback(f)
	e.emit(obs.Span{Superstep: step, Worker: f.Worker, Phase: obs.PhaseRecovery,
		StartNS: t0, DurNS: e.nowNS() - t0})
	return resume, err
}

// masterPhase runs master.compute for step, converting a panic into an
// error so a faulty master cannot crash the process (the vertex phase
// has the same protection in runChunk).
func (e *engine) masterPhase(step int) (halted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pregel: master compute panicked at superstep %d: %v", step, r)
		}
	}()
	e.mc.superstep = step
	e.job.MasterCompute(&e.mc)
	return e.halted, nil
}

// ---- Routing ----
//
// Routing moves every outbox into destination workers' inboxes, grouped
// per destination vertex in CSR form, preserving the canonical (source
// worker, source chunk, emission) order for determinism. The staging is
// sharded by source: workers are grouped into up to maxRouteShards
// contiguous shards, and each (destination, shard) pair owns one
// counting-sort row (srcCounts) that only that shard's counter writes —
// no cross-shard cache contention. The placement is a sharded stable
// counting sort: row offsets depend only on the box geometry, never on
// which executor runs a task, so the inbox is bit-identical to a
// single-threaded sort.
//
// Routing runs after the barrier as three pool dispatches — count,
// prefix, place — so the vertex phase never writes routing staging.

// routeMessages runs the superstep's count, prefix and place dispatches
// and reports whether any message is in flight. Boxes are read-only
// during the phase and truncated by chunk execution (or fold) at the
// start of the next vertex phase; once inbox/scratch capacity has
// reached its high-water mark, routing allocates nothing.
func (e *engine) routeMessages() bool {
	// Routing rebuilds the inbox in RAM; any spill segment from the
	// previous superstep is dead from here on.
	for _, wk := range e.workers {
		wk.spilled = false
	}
	e.runPhase(phaseRouteCount, 0)
	e.runPhase(phaseRoutePrefix, 0)
	e.runPhase(phaseRoutePlace, 0)
	any := false
	for _, wk := range e.workers {
		if wk.inTotal > 0 {
			any = true
			break
		}
	}
	return any
}

// countShard counts source shard sh's messages destined for dst into
// dst's srcCounts row for the shard, walking the shard's workers (and
// their chunks) in canonical order. A shard that sent nothing to dst
// skips the walk and leaves the row stale — srcMsgs records the total
// so prefix and place skip it too. Each (destination, shard) row is one
// count-dispatch task, so exactly one goroutine writes it.
//
//gm:noalloc
func (e *engine) countShard(dst *worker, sh int) {
	lo, hi := e.shardStart[sh], e.shardStart[sh+1]
	d := dst.index
	var total int32
	if e.combActive {
		for s := lo; s < hi; s++ {
			total += int32(e.workers[s].outboxes[d].len())
		}
	} else {
		for s := lo; s < hi; s++ {
			src := e.workers[s]
			for ci := range src.chunks {
				total += int32(src.chunks[ci].boxes[d].len())
			}
		}
	}
	dst.srcMsgs[sh] = total
	if total == 0 {
		return
	}
	cnt := dst.srcCounts[sh]
	for i := range cnt {
		cnt[i] = 0
	}
	if e.combActive {
		for s := lo; s < hi; s++ {
			for _, v := range e.workers[s].outboxes[d].dst {
				cnt[dst.localOf(v)]++
			}
		}
		return
	}
	for s := lo; s < hi; s++ {
		src := e.workers[s]
		for ci := range src.chunks {
			for _, v := range src.chunks[ci].boxes[d].dst {
				cnt[dst.localOf(v)]++
			}
		}
	}
}

// routePhase drains (destination, source-shard) tasks for the count or
// place sub-phase from the shared task queue.
//
//gm:noalloc
func (x *executor) routePhase(kind phaseKind) {
	e := x.e
	grid := int64(e.shards)
	limit := int64(len(e.workers)) * grid
	for {
		t := e.taskCursor.Add(1) - 1
		if t >= limit {
			return
		}
		e.workers[t/grid].runShard(kind, int(t%grid))
	}
}

// runShard dispatches one (destination, source-shard) routing task to
// the count or place sub-phase.
//
//gm:noalloc
func (wk *worker) runShard(kind phaseKind, s int) {
	if kind == phaseRouteCount {
		if s == 0 && wk.routeFaultOn && wk.routeFault == FaultRouteCount {
			wk.routeFaultOn = false
			wk.phaseErr = &InjectedFault{Superstep: wk.faultStep, Worker: wk.index, Phase: FaultRouteCount} //gm:alloc-ok fault-injection testing path; never armed in production runs
		}
		wk.e.countShard(wk, s)
	} else {
		wk.placeShard(s)
	}
}

// prefixPhase drains per-destination prefix tasks.
//
//gm:noalloc
func (x *executor) prefixPhase() {
	e := x.e
	for {
		t := int(e.taskCursor.Add(1)) - 1
		if t >= len(e.workers) {
			return
		}
		e.workers[t].routePrefix()
	}
}

// routePrefix turns the per-shard counts into placement offsets and the
// CSR inbox offsets, sizes the inbox, and reactivates message
// recipients (maintaining the chunk active counters). Offsets derive
// only from counts, so placement is execution-order independent.
//
//gm:noalloc
func (wk *worker) routePrefix() {
	if wk.routeFaultOn && wk.routeFault == FaultRoutePrefix {
		wk.routeFaultOn = false
		wk.phaseErr = &InjectedFault{Superstep: wk.faultStep, Worker: wk.index, Phase: wk.routeFault} //gm:alloc-ok fault-injection testing path; never armed in production runs
	}
	shards := len(wk.srcMsgs)
	total := 0
	for s := 0; s < shards; s++ {
		total += int(wk.srcMsgs[s])
	}
	wk.inTotal = total
	wk.inDepth.Store(int64(total))
	wk.sizeInbox(total)
	n := len(wk.ids)
	if total == 0 {
		for i := range wk.inOff {
			wk.inOff[i] = 0
		}
		return
	}
	var run int32
	for li := 0; li < n; li++ {
		wk.inOff[li] = run
		for s := 0; s < shards; s++ {
			if wk.srcMsgs[s] == 0 {
				continue
			}
			c := wk.srcCounts[s][li]
			wk.srcCounts[s][li] = run
			run += c
		}
	}
	wk.inOff[n] = run
	for ci := range wk.chunks {
		ck := &wk.chunks[ci]
		for li := ck.lo; li < ck.hi; li++ {
			if wk.inOff[li+1] > wk.inOff[li] && !wk.active[li] {
				wk.active[li] = true
				ck.numActive++
			}
		}
	}
}

// sizeInbox sets the inbox to total messages (k slots each, plus tags
// in tagged runs), growing it to its high-water mark.
//
//gm:noalloc
func (wk *worker) sizeInbox(total int) {
	wk.inPay = grow(wk.inPay, total*wk.k) //gm:alloc-ok inbox grows to its high-water mark, then capacity is reused; steady state allocation-free
	if wk.tagged {
		wk.inTyp = grow(wk.inTyp, total) //gm:alloc-ok inbox grows to its high-water mark, then capacity is reused; steady state allocation-free
	}
}

// placeShard stably places source shard s's messages at the offsets
// computed by routePrefix, walking the shard's boxes in the same
// canonical order countShard counted them. Only the payload slots (and
// tags, in tagged runs) are copied: the row names the destination. An
// untagged run with no payload slots has nothing to place.
//
//gm:noalloc
func (wk *worker) placeShard(s int) {
	if s == 0 && wk.routeFaultOn && wk.routeFault == FaultRoutePlace {
		wk.routeFaultOn = false
		wk.phaseErr = &InjectedFault{Superstep: wk.faultStep, Worker: wk.index, Phase: FaultRoutePlace} //gm:alloc-ok fault-injection testing path; never armed in production runs
	}
	if wk.srcMsgs[s] == 0 || (wk.k == 0 && !wk.tagged) {
		return
	}
	e := wk.e
	lo, hi := e.shardStart[s], e.shardStart[s+1]
	d := wk.index
	pos := wk.srcCounts[s]
	if e.combActive {
		for src := lo; src < hi; src++ {
			wk.placeBox(pos, &e.workers[src].outboxes[d])
		}
		return
	}
	for src := lo; src < hi; src++ {
		sw := e.workers[src]
		for ci := range sw.chunks {
			wk.placeBox(pos, &sw.chunks[ci].boxes[d])
		}
	}
}

// placeBox places one box's messages at the running offsets in pos.
//
//gm:noalloc
func (wk *worker) placeBox(pos []int32, b *msgBox) {
	k := wk.k
	for i, v := range b.dst {
		li := wk.localOf(v)
		p := int(pos[li])
		pos[li] = int32(p + 1)
		if wk.tagged {
			wk.inTyp[p] = b.typ[i]
		}
		dst := wk.inPay[p*k : p*k+k]
		src := b.pay[i*k : i*k+k]
		for j := range dst {
			dst[j] = src[j]
		}
	}
}
