package sim

import (
	"sort"
	"sync"
)

// Sharded execution (DESIGN.md §15).
//
// ShardedEval extends the engine's parallel phase from "pure per-item
// evaluation" (ParallelEval) to *shard-affine* evaluation: items are grouped
// by a caller-supplied spatial shard function, every item of one shard runs
// sequentially on the same worker, and side effects on the engine are staged
// through Stage and committed at the closing barrier in deterministic item
// order. The contract is derived from the conservative-parallel analysis in
// DESIGN.md §15: this simulation's media have zero cross-shard lookahead (a
// transmission mutates remote receiver state at the same timestamp it is
// issued), so the conservative synchronization window degenerates to a
// single event, and the safe parallel unit is a phase *inside* an event —
// shard-partitioned work fanned out between two barriers, with cross-shard
// effects deferred to the serial commit.
//
// What a shard worker may do that a ParallelEval worker may not:
//
//   - keep mutable *per-shard* scratch (visited arrays, queues): all items
//     of a shard run on one worker, so scratch indexed by the item's shard
//     is single-threaded by construction;
//   - defer engine-visible effects via Stage(item, op): ops are buffered
//     per shard and executed after the barrier in ascending item order
//     (FIFO within an item), so the committed effect sequence — and hence
//     the run — is bit-identical at any shard count, including zero.
//
// Everything else follows the ParallelEval purity contract: no engine
// scheduling, no RNG, no writes shared between shards except declared
// per-item result slots.

// MinShardItems is the fan-out threshold for ShardedEval. Sharded items are
// coarse units of work (a whole graph traversal, not one distance), so the
// threshold is far lower than MinParallelItems.
const MinShardItems = 2

// ShardMap assigns node ids to spatial shards: k vertical stripes of the
// [0,side]² deployment area, the same tiling family geom.Grid uses for
// range queries. Spatial striping keeps a shard's working set (positions,
// adjacency) contiguous in space; correctness never depends on the
// assignment, only load balance does, so a map built from a mobility
// snapshot stays valid for the whole run.
type ShardMap struct {
	k     int
	shard []int32
}

// NewShardMap partitions n ids into k stripes by x coordinate. Positions
// outside [0, side) clamp to the boundary stripes.
func NewShardMap(k, n int, side float64, x func(id int) float64) *ShardMap {
	if k < 1 {
		k = 1
	}
	m := &ShardMap{k: k, shard: make([]int32, n)}
	for id := 0; id < n; id++ {
		s := 0
		if side > 0 {
			s = int(x(id) / side * float64(k))
		}
		if s < 0 {
			s = 0
		}
		if s >= k {
			s = k - 1
		}
		m.shard[id] = int32(s)
	}
	return m
}

// Shards returns the stripe count.
func (m *ShardMap) Shards() int { return m.k }

// Shard returns id's stripe.
func (m *ShardMap) Shard(id int) int { return int(m.shard[id]) }

// stagedOp is one deferred engine-visible effect of a sharded phase.
type stagedOp struct {
	item int
	fn   func()
}

// shardTask is one unit of fan-out handed to a pool worker: a shard's item
// list, or — when items is nil — a contiguous [start, end) index range (the
// form ParallelEval uses).
type shardTask struct {
	fn         func(int)
	items      []int32
	start, end int
	wg         *sync.WaitGroup
}

// shardPool is the engine's one worker pool: the fixed goroutine set
// draining shardTasks for both ShardedEval and ParallelEval. It exists only
// between the first fanned-out phase and StopWorkers.
type shardPool struct {
	tasks chan shardTask
	wg    sync.WaitGroup // reused across phases: no per-call alloc
}

func newShardPool(size int) *shardPool {
	// Buffer one task per shard so dispatch never blocks behind workers.
	p := &shardPool{tasks: make(chan shardTask, size)}
	for i := 0; i < size; i++ {
		go func() {
			for t := range p.tasks {
				if t.items == nil {
					for j := t.start; j < t.end; j++ {
						t.fn(j)
					}
				} else {
					for _, item := range t.items {
						t.fn(int(item))
					}
				}
				t.wg.Done()
			}
		}()
	}
	return p
}

// SetShards sets the engine's parallel-phase width: ShardedEval fans shard
// groups, and ParallelEval contiguous chunks, across k workers when k > 1,
// and both run inline otherwise. The pool itself starts lazily on the
// first fanned-out phase. It is purely a throughput knob — results are
// bit-identical at any width — and may be changed mid-run between events
// (the old pool is stopped).
func (e *Engine) SetShards(k int) {
	if k < 0 {
		k = 0
	}
	if k == e.shards {
		return
	}
	e.StopWorkers()
	e.shards = k
}

// Shards returns the configured parallel-phase width.
func (e *Engine) Shards() int { return e.shards }

// StopWorkers terminates the engine's pool goroutines, if any. Callers that
// set Shards > 1 should defer this when the run ends so pools do not pile
// up across the engines of a sweep. Safe to call repeatedly; the phases
// restart the pool on demand.
func (e *Engine) StopWorkers() {
	if e.shardPool != nil {
		close(e.shardPool.tasks)
		e.shardPool = nil
	}
}

// ShardedEval runs fn(i) for every i in [0, n) grouped by shardOf(i): items
// of one shard execute sequentially in ascending order on a single worker,
// distinct shards run concurrently, and the call returns after all items
// and all staged commits have finished.
//
// Determinism contract (DESIGN.md §15): shardOf must be a pure function of
// its argument. fn may read simulation state frozen for the phase, write
// its item's own result slot, mutate scratch indexed by the item's shard,
// and defer engine-visible effects with Stage — nothing else: no engine
// calls, no RNG, no ParallelEval/ShardedEval nesting. Staged ops are
// executed after the barrier in ascending item order, so the observable
// effect sequence is identical at any shard count, including zero.
//
// With shards <= 1 or n below MinShardItems the phase runs inline — same
// item order, same commit order.
func (e *Engine) ShardedEval(n int, shardOf func(id int) int, fn func(i int)) {
	if e.inShardPhase {
		panic("sim: nested ShardedEval")
	}
	k := e.shards
	if k < 1 {
		k = 1
	}
	e.ensureStageBufs(k)
	e.inShardPhase = true
	e.phaseShardOf = shardOf
	if k <= 1 || n < MinShardItems {
		for i := 0; i < n; i++ {
			fn(i)
		}
	} else {
		for s := 0; s < k; s++ {
			e.shardBuckets[s] = e.shardBuckets[s][:0]
		}
		for i := 0; i < n; i++ {
			s := shardOf(i)
			if s < 0 {
				s = 0
			}
			s %= k
			e.shardBuckets[s] = append(e.shardBuckets[s], int32(i))
		}
		if e.shardPool == nil {
			e.shardPool = newShardPool(k)
		}
		p := e.shardPool
		for s := 0; s < k; s++ {
			if len(e.shardBuckets[s]) == 0 {
				continue
			}
			p.wg.Add(1)
			p.tasks <- shardTask{fn: fn, items: e.shardBuckets[s], wg: &p.wg}
		}
		p.wg.Wait()
	}
	e.inShardPhase = false
	e.phaseShardOf = nil
	e.commitStaged()
}

// ensureStageBufs sizes the per-shard buckets and staging buffers for a
// k-wide phase, reusing prior capacity.
func (e *Engine) ensureStageBufs(k int) {
	for len(e.shardBuckets) < k {
		e.shardBuckets = append(e.shardBuckets, nil)
	}
	for len(e.stageBufs) < k {
		e.stageBufs = append(e.stageBufs, nil)
	}
	for s := range e.stageBufs {
		e.stageBufs[s] = e.stageBufs[s][:0]
	}
}

// Stage defers op to the end of the enclosing ShardedEval phase. item must
// be the index the calling worker is currently evaluating — that is what
// makes the per-shard staging buffer single-writer — and ops are run after
// the barrier in ascending item order (FIFO within an item), on the engine
// goroutine, where they may schedule, send, and draw RNG freely.
//
// Calling Stage outside a sharded phase is a programming error.
//
//pqlint:parshared(per-shard staging buffer: each shard worker appends only ops for its own items, and the buffers are drained serially at the barrier in item order)
func (e *Engine) Stage(item int, op func()) {
	if !e.inShardPhase {
		panic("sim: Stage called outside ShardedEval")
	}
	s := 0
	if k := len(e.stageBufs); k > 1 && e.phaseShardOf != nil {
		s = e.phaseShardOf(item)
		if s < 0 {
			s = 0
		}
		s %= k
	}
	e.stageBufs[s] = append(e.stageBufs[s], stagedOp{item: item, fn: op})
}

// commitStaged drains the staging buffers in ascending item order. Each
// buffer is already item-ordered (workers walk their bucket in ascending
// order), so a stable sort of the concatenation is a k-way merge.
func (e *Engine) commitStaged() {
	ops := e.commitScratch[:0]
	for s := range e.stageBufs {
		ops = append(ops, e.stageBufs[s]...)
		e.stageBufs[s] = e.stageBufs[s][:0]
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].item < ops[b].item })
	// Detach the scratch while ops run: an op may synchronously trigger
	// another ShardedEval (e.g. a commit that sends, whose handler
	// prefetches), and its nested commit must not reuse this backing array.
	e.commitScratch = nil
	for i := range ops {
		ops[i].fn()
		ops[i].fn = nil
	}
	if e.commitScratch == nil {
		e.commitScratch = ops[:0]
	}
}
