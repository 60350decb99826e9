package experiment

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// shardsScenario exercises everything the sharded-phase path touches: oracle
// routing (so quorum fan-outs trigger ShardedEval prefetches of the route
// memo's distance fields), heartbeat neighbor discovery (the exact-version
// validity path), lazy membership, SINR with continuous churn so fields
// invalidate and rebuild mid-run.
func shardsScenario(shards int) Scenario {
	sc := Scenario{
		N: 120, Stack: netstack.StackSINR, Seed: 9,
		Advertisements: 8, Lookups: 40, LookupNodes: 8,
		ChurnFailRate: 0.2, ChurnJoinRate: 0.2,
		OracleRouting: true, LazyMembership: true,
		Shards: shards,
	}
	sc.Quorum = mixConfig(sc.N, quorum.Random, quorum.Random)
	return sc
}

// TestShardsBitIdentical is the sharded-phase determinism gate (run by make
// check): a full experiment over the route cache's parallel prefetch path
// must render bit-identically with sharding off and at widths 1, 2, 4, and
// 8. CI's race-stress step overrides the width via PQ_SHARDS_STRESS to run
// one width at a time under -race with GORACE=halt_on_error=1,
// cross-checking parsafe's static audit of ShardedEval callbacks against the
// dynamic detector.
func TestShardsBitIdentical(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	if s := os.Getenv("PQ_SHARDS_STRESS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			t.Fatalf("PQ_SHARDS_STRESS=%q is not a positive shard count", s)
		}
		widths = []int{w}
	}
	wantRes := fmt.Sprintf("%+v", Run(shardsScenario(0)))
	for _, w := range widths {
		if got := fmt.Sprintf("%+v", Run(shardsScenario(w))); got != wantRes {
			t.Errorf("Shards=%d result diverged from serial run:\n got %s\nwant %s", w, got, wantRes)
		}
	}
}

// TestShardsResizeMidRun changes the shard width between events mid-run via
// a scheduled SetShards; the run must be unperturbed (pure throughput knob).
func TestShardsResizeMidRun(t *testing.T) {
	run := func(resize bool) string {
		sc := shardsScenario(2)
		engine, net, _, _, _ := buildStack(sc)
		defer engine.StopWorkers()
		if resize {
			engine.Schedule(40, func() { engine.SetShards(8) })
			engine.Schedule(80, func() { engine.SetShards(3) })
		}
		engine.Run(140)
		return net.Stats().String()
	}
	if got, want := run(true), run(false); got != want {
		t.Errorf("mid-run SetShards perturbed the run:\n got %s\nwant %s", got, want)
	}
}

// TestRouteMemoPrefetchPure runs the shards scenario — SINR, heartbeat
// neighbors, churn — with the quorum layer seeing the oracle with and
// without its RoutePrefetcher side. Prefetching decides only when distance
// fields are built, so the Result must be identical.
func TestRouteMemoPrefetchPure(t *testing.T) {
	with := shardsScenario(0)
	without := shardsScenario(0)
	without.noPrefetch = true
	got, want := fmt.Sprintf("%+v", Run(without)), fmt.Sprintf("%+v", Run(with))
	if got != want {
		t.Errorf("run without prefetch diverged:\n got %s\nwant %s", got, want)
	}
}
