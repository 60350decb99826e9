// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package runs on: protocol stacks
// schedule closures at absolute or relative simulation times, and the engine
// executes them in nondecreasing time order with FIFO tie-breaking, so a run
// with a fixed seed is fully reproducible.
//
// # Run isolation invariant
//
// One Engine is one run, and a run is single-threaded: nothing in this
// package (or in the stacks built on it) may be shared across engines or
// touched from another goroutine while the engine runs. Concretely:
//
//   - all randomness flows from the engine's seeded source (Rand/NewStream),
//     never from the global math/rand functions;
//   - neither sim nor any package built on it holds mutable package-level
//     state — every cache, counter, and RNG stream hangs off the Engine or
//     a per-run object constructed around it.
//
// This is what makes the experiment layer's worker pool (experiment.
// RunSweep) safe: independent runs on separate engines may execute
// concurrently with no locks and bit-for-bit deterministic results.
// TestEnginesIsolated enforces the invariant under the race detector; new
// code must preserve it.
//
// The one sanctioned exception is ParallelEval (parallel.go): a synchronous
// fan-out/join of a pure per-item evaluation inside a single event. Its
// contract — no engine calls, no RNG, results consumed in index order after
// the barrier — keeps runs bit-identical at any worker count, so it extends
// the invariant rather than weakening it.
//
// # Event recycling
//
// Events are recycled through an engine-owned free list, so steady-state
// scheduling is allocation-free (DESIGN.md §9). The handle returned by
// At/Schedule is valid only until the event fires or is cancelled; after
// that the engine may reuse the Event for an unrelated later scheduling, so
// callers must drop the handle — retaining it and calling Cancel later
// would cancel whichever event currently occupies the object. Timer and
// Ticker encapsulate this discipline; prefer them for cancellable or
// repeating deadlines.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Event is a scheduled closure. It can be cancelled before it fires. Once it
// has fired or been cancelled the handle is dead and must be dropped (see
// the package comment on event recycling).
type Event struct {
	time      float64
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
	eng       *Engine
}

// Time returns the simulation time at which the event fires.
func (e *Event) Time() float64 { return e.time }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event through a handle that was dropped on time is a
// no-op; holding the handle past the fire and cancelling then is a misuse
// (the object may already back a different scheduling).
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 && e.eng != nil {
		e.eng.live--
		e.eng.maybeCompact()
	}
}

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//pqlint:allow floatequal(exact tie detection is the point: equal times fall through to FIFO seq ordering)
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// compactMinQueue is the queue length below which cancelled events are never
// compacted away eagerly — at small sizes the lazy skip in Run is cheaper
// than a heap rebuild.
const compactMinQueue = 64

// Engine is a discrete-event scheduler with an attached random source.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool
	// processed counts events executed so far (cancelled events excluded).
	processed uint64
	// free is the recycled-Event pool; At pops from it and the run loop
	// pushes fired or cancelled events back, so steady-state scheduling
	// does not allocate.
	free []*Event
	// live counts queued events that are not cancelled.
	live int
	// shards is the fan-out width of both parallel phases, ShardedEval and
	// ParallelEval; shardPool holds the lazily started goroutines they
	// share, and the remaining fields are the sharded phase's reusable
	// grouping/staging state (see shard.go).
	shards        int
	shardPool     *shardPool
	shardBuckets  [][]int32
	stageBufs     [][]stagedOp
	phaseShardOf  func(int) int
	inShardPhase  bool
	commitScratch []stagedOp
}

// NewEngine returns an engine at time zero whose random source is seeded
// with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's random source. All protocol randomness should
// come from this source (or a stream derived from it) for reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewStream derives an independent deterministic random stream from the
// engine's source. Use one stream per stochastic subsystem so that adding
// randomness to one subsystem does not perturb another.
func (e *Engine) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// alloc takes an Event from the free list, or allocates when the pool is
// dry. Stale flags are cleared here rather than at release so that a
// just-fired or just-cancelled handle still answers Cancelled() correctly
// until the object is actually reused.
//
//pqlint:noalloc
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
		return ev
	}
	return &Event{eng: e, index: -1} //pqlint:allow noalloc(pool-dry cold path: one event per live-event high-water increase)
}

// release returns a fired or cancelled event to the free list. The closure
// is dropped immediately so it does not outlive its scheduling.
//
//pqlint:noalloc
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev) //pqlint:allow noalloc(free-list growth is amortized to the live-event high-water mark)
}

// Schedule runs fn after delay seconds. A negative delay is an error by the
// caller; it is clamped to zero so the event fires "now" (after currently
// queued same-time events).
//
//pqlint:noalloc
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Scheduling in the past fires the event at
// the current time. The returned handle is valid until the event fires or
// is cancelled; see the package comment on event recycling.
//
//pqlint:noalloc
func (e *Engine) At(t float64, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.queue, ev)
	e.live++
	return ev
}

// rearm moves a still-queued, non-cancelled event to absolute time t in
// place — no allocation and no cancelled ghost left in the queue — giving
// it a fresh FIFO sequence number exactly as if it had been cancelled and
// rescheduled. It reports whether the event could be rearmed; a fired or
// cancelled event cannot be.
func (e *Engine) rearm(ev *Event, t float64) bool {
	if ev.index < 0 || ev.cancelled {
		return false
	}
	if t < e.now {
		t = e.now
	}
	ev.time = t
	ev.seq = e.seq
	e.seq++
	heap.Fix(&e.queue, ev.index)
	return true
}

// maybeCompact rebuilds the queue without its cancelled events once they
// outnumber the live ones. Timer-heavy workloads (MAC ACK timeouts, lookup
// deadlines) cancel far more events than they let fire; without compaction
// those ghosts dominate the heap and every push/pop pays for them. The
// rebuild preserves each live event's (time, seq) key, and the heap order
// is a total order on that key, so execution order — and therefore
// determinism — is unaffected.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactMinQueue || 2*e.live >= len(e.queue) {
		return
	}
	n := len(e.queue)
	kept := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			ev.index = -1
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < n; i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	for i, ev := range e.queue {
		ev.index = i
	}
	heap.Init(&e.queue)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or simulation time would
// exceed until. Events scheduled exactly at until are executed. It returns
// the number of events executed during this call.
func (e *Engine) Run(until float64) uint64 {
	start := e.processed
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.time > until {
			break
		}
		heap.Pop(&e.queue)
		if next.cancelled {
			e.release(next)
			continue
		}
		e.live--
		e.now = next.time
		next.fn()
		e.processed++
		e.release(next)
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.processed - start
}

// RunAll executes events until the queue is empty. It is intended for tests
// and analytic drivers; simulations with periodic timers never drain.
func (e *Engine) RunAll(maxEvents uint64) error {
	e.stopped = false
	var n uint64
	for len(e.queue) > 0 && !e.stopped {
		next := heap.Pop(&e.queue).(*Event)
		if next.cancelled {
			e.release(next)
			continue
		}
		e.live--
		e.now = next.time
		next.fn()
		e.processed++
		e.release(next)
		if n++; n >= maxEvents {
			return fmt.Errorf("sim: RunAll exceeded %d events", maxEvents)
		}
	}
	return nil
}

// Pending returns the number of live (non-cancelled) queued events.
func (e *Engine) Pending() int { return e.live }

// QueueLen returns the raw queue length including lazily cancelled events
// that have not yet been skipped or compacted away. QueueLen − Pending is
// the ghost population; tests use it to observe compaction.
func (e *Engine) QueueLen() int { return len(e.queue) }
