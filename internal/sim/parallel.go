package sim

// MinParallelItems is the fan-out threshold for ParallelEval: below it the
// cross-goroutine handoff costs more than the work saved, so the loop runs
// inline regardless of the shard width.
const MinParallelItems = 32

// ParallelEval runs fn(i) for every i in [0, n) and returns when all calls
// have finished — the engine's "parallel phase" primitive for fanning pure
// per-item evaluation (candidate-receiver power computation, batch scoring)
// across the engine's worker pool.
//
// Determinism contract: fn must be a pure read of simulation state plus a
// write to the item's own result slot — no engine calls, no RNG draws, no
// writes shared between items, and no nested ParallelEval. The caller then
// consumes the result slots in index order on the engine goroutine, so
// mutation order — and therefore the run — is bit-identical at any width,
// including zero. Item order inside the fan-out is intentionally
// unobservable: chunks are contiguous index ranges, and the only
// synchronization points are dispatch and the final barrier.
//
// The phase runs on the same pool as ShardedEval, sized by SetShards, but
// without shard grouping or staging: with shards > 1 and n at least
// MinParallelItems the index range is split into one contiguous chunk per
// worker; otherwise the loop runs inline.
func (e *Engine) ParallelEval(n int, fn func(i int)) {
	if n < MinParallelItems || e.shards <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if e.shardPool == nil {
		e.shardPool = newShardPool(e.shards)
	}
	p := e.shardPool
	chunk := (n + e.shards - 1) / e.shards
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		p.wg.Add(1)
		p.tasks <- shardTask{fn: fn, start: start, end: end, wg: &p.wg}
	}
	p.wg.Wait()
}
