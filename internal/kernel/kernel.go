// Package kernel is the shared execution engine for level-structured
// big-integer work: product-tree levels, remainder-tree levels, GCD
// sweeps. Every math layer of the study — prodtree, batchgcd, distgcd,
// keycheck — schedules its per-level loops here instead of spawning its
// own goroutines.
//
// Why one engine instead of per-call goroutines:
//
//   - One persistent worker pool, sized to GOMAXPROCS at creation, is
//     shared by every caller. k concurrent distgcd nodes or parallel
//     keycheck shard builds used to each spin up a GOMAXPROCS-wide
//     goroutine set, oversubscribing the machine exactly when load was
//     highest; on the shared pool total math concurrency stays bounded.
//   - Work is claimed in chunks off an atomic cursor, and cancellation
//     is checked per chunk. A cancelled 1M-leaf tree build used to run
//     to the end of its level (minutes at paper scale); now it stops
//     within one chunk and drains the rest without executing them.
//   - Any job of two or more ops fans out. The 2- and 3-node levels at
//     the top of a tree hold its widest operands and most of its cost;
//     only a single op (or a 1-worker engine) runs inline on the caller.
//   - Each executing goroutine owns a reusable big.Int scratch arena,
//     so Mul/Mod/GCD temporaries are recycled across chunks and tree
//     levels instead of allocated per node.
//
// Nesting is safe by construction: Run uses a caller-runs discipline —
// the submitting goroutine claims chunks of its own job alongside the
// pool workers, so a job submitted from inside a worker (for example a
// keycheck shard build whose product tree schedules its levels here)
// always makes progress even when every pool worker is busy. Blocking
// only ever points at strictly nested jobs, so there is no cycle and no
// deadlock; the worst case degrades to the caller executing its whole
// job inline.
//
// The process-wide engine is Default(). Callers that need a different
// shape — the 1-worker serial baseline bench/ times kernel.speedup
// against, the bit-identical equivalence property tests — attach their
// own engine to a context with With; every math layer resolves its
// engine via FromContext, falling back to Default.
package kernel

import (
	"context"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

const (
	// maxChunk caps the chunk size so cancellation latency and arena
	// footprint stay bounded on huge levels: a 1M-leaf level is ~1000
	// chunks, each an independent cancellation point.
	maxChunk = 1024
	// chunksPerWorker is the load-balancing target: enough chunks that a
	// slow worker sheds load to the others, few enough that the atomic
	// cursor is not contended.
	chunksPerWorker = 4
)

// Engine owns a worker pool and schedules chunked loops onto it. Safe
// for concurrent use by any number of goroutines, including nested use
// from inside a running job.
type Engine struct {
	workers int
	jobs    chan *job
	arenas  chan *Arena

	jobsN    atomic.Int64
	inlineN  atomic.Int64
	ops      atomic.Int64
	chunks   atomic.Int64
	waitNs   atomic.Int64
	arenaHit atomic.Int64
	arenaMis atomic.Int64
}

// New builds an engine with the given worker-pool width. workers is the
// total parallelism of one job: the submitting goroutine plus workers-1
// pool goroutines. workers <= 1 builds a purely inline engine (no pool
// goroutines at all), the serial baseline.
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{
		workers: workers,
		jobs:    make(chan *job, workers*chunksPerWorker),
		arenas:  make(chan *Arena, workers+2),
	}
	for i := 0; i < workers-1; i++ {
		go e.worker()
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine, created on first use
// and sized to GOMAXPROCS at that moment.
func Default() *Engine {
	defaultOnce.Do(func() {
		defaultEngine = New(runtime.GOMAXPROCS(0))
	})
	return defaultEngine
}

type ctxKey struct{}

// With returns a context carrying e; FromContext on the result returns
// e. It is how benchmarks and tests pin a specific engine (for example
// the 1-worker serial baseline) under call stacks that plumb only a
// context.
func With(ctx context.Context, e *Engine) context.Context {
	return context.WithValue(ctx, ctxKey{}, e)
}

// FromContext returns the engine attached with With, or Default().
func FromContext(ctx context.Context) *Engine {
	if e, ok := ctx.Value(ctxKey{}).(*Engine); ok && e != nil {
		return e
	}
	return Default()
}

// Workers returns the engine's total parallelism per job.
func (e *Engine) Workers() int { return e.workers }

// job is one Run invocation: a half-open index space claimed chunk by
// chunk off an atomic cursor by the caller and any free pool workers.
type job struct {
	ctx     context.Context
	f       func(i int, a *Arena)
	n       int
	chunk   int
	nchunks int64

	next      atomic.Int64 // next unclaimed chunk
	done      atomic.Int64 // chunks finished or abandoned
	cancelled atomic.Bool
	fin       chan struct{}
}

// Run executes f(i, arena) for every i in [0, n) on the pool, returning
// once all of them completed. The iteration order is unspecified and
// calls run concurrently; f must only touch index-disjoint state. The
// arena passed to f is private to the executing goroutine; values
// obtained from it are valid only until f returns and must never be
// stored into results (see Arena).
//
// ctx is checked between chunks: on cancellation the remaining chunks
// are drained without executing f and Run returns the context's error.
// Indices already claimed by workers finish first, so f is never still
// running after Run returns.
func (e *Engine) Run(ctx context.Context, n int, f func(i int, a *Arena)) error {
	if n <= 0 {
		return ctx.Err()
	}
	e.jobsN.Add(1)
	e.ops.Add(int64(n))
	chunk := e.chunkFor(n)
	inline := e.workers <= 1 || n == 1
	// One debug event per job (not per op): an ingest's request ID rides
	// the context, so /debug/events can show which request drove which
	// kernel fan-out.
	telemetry.EventsFrom(ctx).Debug(ctx, "kernel job",
		slog.Int("ops", n),
		slog.Int("chunk", chunk),
		slog.Bool("inline", inline))
	if inline {
		return e.runInline(ctx, n, chunk, f)
	}
	j := &job{
		ctx:     ctx,
		f:       f,
		n:       n,
		chunk:   chunk,
		nchunks: int64((n + chunk - 1) / chunk),
		fin:     make(chan struct{}),
	}
	e.chunks.Add(j.nchunks)
	// Offer the job to as many pool workers as could usefully help; a
	// full channel just means they are busy and the caller-runs loop
	// below carries the job alone.
	offers := int64(e.workers - 1)
	if offers > j.nchunks-1 {
		offers = j.nchunks - 1
	}
	for i := int64(0); i < offers; i++ {
		select {
		case e.jobs <- j:
		default:
			i = offers // channel full; stop offering
		}
	}
	a := e.getArena()
	j.help(a)
	e.putArena(a)
	// The caller ran out of chunks to claim; wait for workers to finish
	// the chunks they hold. This tail wait is the pool-imbalance cost
	// surfaced as kernel_chunk_wait_seconds.
	t0 := time.Now()
	<-j.fin
	e.waitNs.Add(time.Since(t0).Nanoseconds())
	if j.cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// runInline executes the loop on the calling goroutine, still in chunk
// strides so cancellation granularity matches the pooled path.
func (e *Engine) runInline(ctx context.Context, n, chunk int, f func(i int, a *Arena)) error {
	e.inlineN.Add(1)
	a := e.getArena()
	defer e.putArena(a)
	for lo := 0; lo < n; lo += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			f(i, a)
		}
		a.reset()
		e.chunks.Add(1)
	}
	return nil
}

// chunkFor picks the chunk size for an n-wide job.
func (e *Engine) chunkFor(n int) int {
	chunk := n / (e.workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxChunk {
		chunk = maxChunk
	}
	return chunk
}

// worker is one pool goroutine: it owns an arena for life and helps
// whatever jobs are offered.
func (e *Engine) worker() {
	a := newArena(e)
	for j := range e.jobs {
		j.help(a)
	}
}

// help claims and executes chunks of j until the cursor runs out. Both
// pool workers and the submitting goroutine run this; whoever finishes
// the last chunk closes fin.
func (j *job) help(a *Arena) {
	for {
		c := j.next.Add(1) - 1
		if c >= j.nchunks {
			return
		}
		if j.cancelled.Load() || j.ctx.Err() != nil {
			// Drain without executing: mark and fall through to the
			// completion accounting so Run still unblocks.
			j.cancelled.Store(true)
		} else {
			lo := int(c) * j.chunk
			hi := lo + j.chunk
			if hi > j.n {
				hi = j.n
			}
			for i := lo; i < hi; i++ {
				j.f(i, a)
			}
			a.reset()
		}
		if j.done.Add(1) == j.nchunks {
			close(j.fin)
		}
	}
}

// getArena hands out a scratch arena for one help/inline stint;
// putArena returns it so capacity is recycled across jobs and levels.
func (e *Engine) getArena() *Arena {
	select {
	case a := <-e.arenas:
		return a
	default:
		return newArena(e)
	}
}

func (e *Engine) putArena(a *Arena) {
	a.reset()
	select {
	case e.arenas <- a:
	default:
	}
}

// Close stops the pool goroutines. Only for engines that are done for
// good (tests); calling Run after or concurrently with Close panics.
// The Default engine is never closed.
func (e *Engine) Close() {
	close(e.jobs)
}

// Stats is a point-in-time snapshot of the engine's cost counters.
type Stats struct {
	// Workers is the engine's per-job parallelism.
	Workers int `json:"workers"`
	// Jobs counts Run invocations; InlineJobs the subset executed
	// entirely on the calling goroutine (one op or serial engine).
	Jobs       int64 `json:"jobs"`
	InlineJobs int64 `json:"inline_jobs"`
	// Ops is the total number of scheduled indices (one per tree node,
	// modulus, or sweep element).
	Ops int64 `json:"ops"`
	// Chunks is the number of work chunks executed; each is also a
	// cancellation checkpoint.
	Chunks int64 `json:"chunks"`
	// ChunkWait is the cumulative time submitters spent waiting for
	// pool workers to finish the final chunks of their jobs.
	ChunkWait time.Duration `json:"chunk_wait_ns"`
	// ArenaHits/ArenaMisses count scratch big.Int requests served from
	// an arena versus freshly allocated.
	ArenaHits   int64 `json:"arena_hits"`
	ArenaMisses int64 `json:"arena_misses"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:     e.workers,
		Jobs:        e.jobsN.Load(),
		InlineJobs:  e.inlineN.Load(),
		Ops:         e.ops.Load(),
		Chunks:      e.chunks.Load(),
		ChunkWait:   time.Duration(e.waitNs.Load()),
		ArenaHits:   e.arenaHit.Load(),
		ArenaMisses: e.arenaMis.Load(),
	}
}

// Publish mirrors the engine counters into the registry as kernel_*
// gauges (nil-safe): kernel_workers, kernel_jobs, kernel_inline_jobs,
// kernel_ops, kernel_chunks, kernel_chunk_wait_seconds,
// kernel_arena_hits, kernel_arena_misses.
func (e *Engine) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	st := e.Stats()
	reg.Gauge("kernel_workers").Set(float64(st.Workers))
	reg.Gauge("kernel_jobs").Set(float64(st.Jobs))
	reg.Gauge("kernel_inline_jobs").Set(float64(st.InlineJobs))
	reg.Gauge("kernel_ops").Set(float64(st.Ops))
	reg.Gauge("kernel_chunks").Set(float64(st.Chunks))
	reg.Gauge("kernel_chunk_wait_seconds").Set(st.ChunkWait.Seconds())
	reg.Gauge("kernel_arena_hits").Set(float64(st.ArenaHits))
	reg.Gauge("kernel_arena_misses").Set(float64(st.ArenaMisses))
}
