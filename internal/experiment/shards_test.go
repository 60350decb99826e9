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

// mobileScenario is a mobile SINR/DCF/AODV scenario dense enough that
// per-broadcast candidate sets exceed sim.MinParallelItems, so fanned-out
// runs genuinely exercise the PHY's ParallelEval phase on the shard pool
// rather than the inline path.
func mobileScenario(shards int) Scenario {
	sc := Scenario{
		N: 80, Stack: netstack.StackSINR,
		SpeedMin: 0.5, SpeedMax: 2, Seed: 5,
		Advertisements: 6, Lookups: 30, LookupNodes: 6,
		Shards: shards,
	}
	sc.Quorum = mixConfig(sc.N, quorum.Random, quorum.UniquePath)
	return sc
}

// statsString runs the built stack (heartbeats + DCF + SINR) for a fixed
// horizon and returns the full netstack counter/latency rendering.
func statsString(sc Scenario) string {
	engine, net, _, _, _ := buildStack(sc)
	defer engine.StopWorkers()
	engine.Run(120)
	return net.Stats().String()
}

// stressWidths returns the shard widths a bit-identity gate checks: 0, 1,
// 2, 4, and 8, or the single width in PQ_SHARDS_STRESS, which CI's
// race-stress step sets to run one width at a time under -race with
// GORACE=halt_on_error=1, cross-checking parsafe's static audit of
// ParallelEval and ShardedEval callbacks against the dynamic detector.
func stressWidths(t *testing.T) []int {
	t.Helper()
	if s := os.Getenv("PQ_SHARDS_STRESS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			t.Fatalf("PQ_SHARDS_STRESS=%q is not a positive shard count", s)
		}
		return []int{w}
	}
	return []int{0, 1, 2, 4, 8}
}

// checkBitIdentical requires the full experiment, and the raw netstack
// statistics of its built stack, to render bit-identically to a serial run
// at every stressWidths width.
func checkBitIdentical(t *testing.T, scenario func(shards int) Scenario) {
	t.Helper()
	wantRes := fmt.Sprintf("%+v", Run(scenario(0)))
	wantStats := statsString(scenario(0))
	for _, w := range stressWidths(t) {
		if got := fmt.Sprintf("%+v", Run(scenario(w))); got != wantRes {
			t.Errorf("Shards=%d result diverged from serial run:\n got %s\nwant %s", w, got, wantRes)
		}
		if got := statsString(scenario(w)); got != wantStats {
			t.Errorf("Shards=%d netstack stats diverged from serial run:\n got %s\nwant %s", w, got, wantStats)
		}
	}
}

// TestShardsBitIdentical is the determinism gate (run by make check) for
// the route memo's sharded prefetch phase (shardsScenario).
func TestShardsBitIdentical(t *testing.T) {
	checkBitIdentical(t, shardsScenario)
}

// TestWorkersBitIdentical is the determinism gate (run by make check) for
// the PHY candidate map (mobileScenario), whose ParallelEval chunks run on
// the shard pool's workers.
func TestWorkersBitIdentical(t *testing.T) {
	checkBitIdentical(t, mobileScenario)
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
