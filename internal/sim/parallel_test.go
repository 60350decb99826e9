package sim

import (
	"math"
	"sync"
	"testing"
	"time"
)

// evalOnce fills a result slice via ParallelEval at the given shard
// width, using a deliberately order-sensitive accumulation consumed in
// index order afterwards, the way medium code does.
func evalOnce(shards, n int) float64 {
	e := NewEngine(1)
	e.SetShards(shards)
	defer e.StopWorkers()
	out := make([]float64, n)
	e.ParallelEval(n, func(i int) {
		x := float64(i) * 1.000001
		out[i] = math.Sin(x) / (1 + x*x)
	})
	// Serial index-order consumption: float addition is not associative, so
	// any reordering of the merge would show up in the sum.
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	return sum
}

// TestParallelEvalDeterministic pins the contract: results are bit-identical
// at any shard width, for sizes below and far above the inline threshold.
func TestParallelEvalDeterministic(t *testing.T) {
	for _, n := range []int{0, 1, MinParallelItems - 1, MinParallelItems, 1000, 4097} {
		want := evalOnce(0, n)
		for _, shards := range []int{1, 2, 3, 8} {
			if got := evalOnce(shards, n); got != want {
				t.Fatalf("n=%d shards=%d: sum=%v, serial=%v", n, shards, got, want)
			}
		}
	}
}

// TestParallelEvalCoversAllItems checks every index is evaluated exactly
// once across chunk boundaries, including the ragged final chunk.
func TestParallelEvalCoversAllItems(t *testing.T) {
	for _, shards := range []int{2, 5, 8} {
		for _, n := range []int{MinParallelItems, 100, 101, 257} {
			e := NewEngine(1)
			e.SetShards(shards)
			hits := make([]int32, n)
			e.ParallelEval(n, func(i int) { hits[i]++ })
			e.StopWorkers()
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("shards=%d n=%d: item %d evaluated %d times", shards, n, i, h)
				}
			}
		}
	}
}

// TestParallelEvalFansOutOnShardPool pins where the phase runs: at shard
// width 2 a fanned-out call starts the engine's shard pool, and its two
// chunks execute concurrently — the first item blocks until an item of the
// second chunk has started, which an inline loop could never satisfy.
func TestParallelEvalFansOutOnShardPool(t *testing.T) {
	e := NewEngine(1)
	e.SetShards(2)
	defer e.StopWorkers()
	n := MinParallelItems
	second := make(chan struct{})
	var concurrent bool
	e.ParallelEval(n, func(i int) {
		switch i {
		case 0:
			select {
			case <-second:
				concurrent = true
			case <-time.After(10 * time.Second):
			}
		case n / 2:
			close(second)
		}
	})
	if e.shardPool == nil {
		t.Fatal("fanned-out ParallelEval did not start the shard pool")
	}
	if !concurrent {
		t.Fatal("ParallelEval chunks did not run concurrently on the shard pool")
	}
}

// TestParallelEvalInlineBelowThreshold pins that small batches never touch
// the pool: no goroutines are started, so the call is safe from contexts
// where the pool was stopped.
func TestParallelEvalInlineBelowThreshold(t *testing.T) {
	e := NewEngine(1)
	e.SetShards(8)
	n := MinParallelItems - 1
	out := make([]bool, n)
	e.ParallelEval(n, func(i int) { out[i] = true })
	if e.shardPool != nil {
		t.Fatalf("pool started for n=%d < MinParallelItems=%d", n, MinParallelItems)
	}
	for i, ok := range out {
		if !ok {
			t.Fatalf("inline path skipped item %d", i)
		}
	}
	e.StopWorkers()
}

// TestSetStopWorkers exercises the lifecycle of the one pool through
// ParallelEval: SetShards clamps and is a no-op at the current width,
// resizing while the pool is live stops it and the next fan-out starts one
// of the new width, StopWorkers is idempotent, and the pool restarts on
// demand after a stop.
func TestSetStopWorkers(t *testing.T) {
	e := NewEngine(1)
	if e.Shards() != 0 {
		t.Fatalf("default Shards() = %d, want 0", e.Shards())
	}
	e.SetShards(-3)
	if e.Shards() != 0 {
		t.Fatalf("negative width clamped to %d, want 0", e.Shards())
	}
	n := MinParallelItems
	covered := func(stage string) {
		t.Helper()
		hits := make([]int32, n)
		e.ParallelEval(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%s: item %d evaluated %d times", stage, i, h)
			}
		}
	}
	e.SetShards(4)
	covered("first fan-out")
	live := e.shardPool
	if live == nil {
		t.Fatal("fanned-out call did not start the pool")
	}
	e.SetShards(4) // same width: the live pool stays
	if e.shardPool != live {
		t.Fatal("SetShards at the current width replaced the live pool")
	}
	e.SetShards(2) // resize while live: old pool must be stopped
	if e.shardPool != nil {
		t.Fatal("resize left the old pool attached")
	}
	covered("after resize")
	if e.shardPool == nil || cap(e.shardPool.tasks) != 2 {
		t.Fatal("fan-out after resize did not start a pool of the new width")
	}
	e.StopWorkers()
	e.StopWorkers() // idempotent
	if e.shardPool != nil {
		t.Fatal("StopWorkers left the pool attached")
	}
	covered("after stop") // restart on demand
	if e.shardPool == nil {
		t.Fatal("fan-out after StopWorkers did not restart the pool")
	}
	e.StopWorkers()
}

// TestParallelEvalEnginesIsolated runs fanned-out evaluations on several
// engines from separate goroutines concurrently — race-detector coverage for
// the run-isolation invariant extended by per-engine pools.
func TestParallelEvalEnginesIsolated(t *testing.T) {
	const engines = 4
	var wg sync.WaitGroup
	sums := make([]float64, engines)
	for k := 0; k < engines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				sums[k] = evalOnce(2+k%3, 500)
			}
		}(k)
	}
	wg.Wait()
	for k := 1; k < engines; k++ {
		if sums[k] != sums[0] {
			t.Fatalf("engine %d sum %v differs from engine 0 sum %v", k, sums[k], sums[0])
		}
	}
}
