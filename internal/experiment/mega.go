//pqlint:allow nowallclock(mega records real wall-clock, allocation, and heap metrics as its output; no simulation state depends on them)

package experiment

import (
	"fmt"
	"runtime"
	"time"

	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/faults"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// The mega scenario is the scale exercise behind DESIGN.md §12: a ≥10k-node
// SINR/DCF network with continuous churn and a randomized fault schedule
// live, the internal/check invariant suite armed, and the engine's
// parallel-phase and cell-noise scale paths selectable — while recording
// the process-level costs (wall clock, allocations, peak heap) that the
// benchmarks track. Routing defaults to the oracle router: AODV route
// discovery floods the whole network per destination, which at 10k nodes
// measures flooding rather than the quorum system, so the oracle isolates
// the PHY/scale cost (Section 4.1's cost-of-using-the-routes framing).

// MegaConfig sizes a mega run. Zero values take scale-appropriate defaults.
type MegaConfig struct {
	// N is the node count (default 10000; the point of the exercise).
	N int
	// Seed drives all randomness.
	Seed int64
	// Workers is the engine's parallel-phase width (0 = serial).
	Workers int
	// Shards is the engine's sharded-phase width (0 = serial): the route
	// cache's bulk prefetch fans tree builds across this many spatial
	// shards. Bit-identical at any setting (DESIGN.md §15).
	Shards int
	// Giga selects the 100k-tier preset: N defaults to 100000 and neighbor
	// discovery switches to the geometric oracle provider (100k beaconing
	// nodes would swamp the PHY with traffic that measures nothing), and
	// results report under the BenchmarkGigaScenario name.
	Giga bool
	// OracleNeighbors forces the geometric neighbor provider (implied by
	// Giga).
	OracleNeighbors bool
	// DenseMembership opts out of lazy draw-on-demand membership views,
	// restoring the previous eager posture (and its refresh allocations).
	DenseMembership bool
	// CellNoiseOff disables the cell-aggregated interference model and
	// runs the exact per-arrival SINR physics (much slower at this n).
	CellNoiseOff bool
	// AODV swaps the oracle router for real AODV (very slow at this n).
	AODV bool
	// Advertisements / Lookups / LookupNodes size the workload
	// (defaults 30 / 60 / 12).
	Advertisements, Lookups, LookupNodes int
	// WarmupSecs precedes the workload (default 30).
	WarmupSecs float64
	// ChurnRate is the continuous fail and join rate in nodes/sec during
	// the lookup phase (default N/20000, i.e. 0.5/s at 10k).
	ChurnRate float64
	// Severity in [0,1] scales the randomized fault schedule (default
	// 0.25).
	Severity float64
	// Horizon scales the whole run down for smoke tests: it multiplies
	// the workload counts and spans by min(1, Horizon) when in (0,1).
	Horizon float64
}

func (mc *MegaConfig) fillDefaults() {
	if mc.Giga {
		if mc.N == 0 {
			mc.N = 100000
		}
		mc.OracleNeighbors = true
	}
	if mc.N == 0 {
		mc.N = 10000
	}
	if mc.Advertisements == 0 {
		mc.Advertisements = 30
	}
	if mc.Lookups == 0 {
		mc.Lookups = 60
	}
	if mc.LookupNodes == 0 {
		mc.LookupNodes = 12
	}
	if mc.WarmupSecs == 0 {
		mc.WarmupSecs = 30
	}
	if mc.ChurnRate == 0 {
		mc.ChurnRate = float64(mc.N) / 20000
	}
	if mc.Severity == 0 {
		mc.Severity = 0.25
	}
	if mc.Horizon <= 0 || mc.Horizon > 1 {
		mc.Horizon = 1
	}
	if mc.Horizon < 1 {
		scale := func(v int) int {
			s := int(float64(v) * mc.Horizon)
			if s < 2 {
				s = 2
			}
			return s
		}
		mc.Advertisements = scale(mc.Advertisements)
		mc.Lookups = scale(mc.Lookups)
		mc.WarmupSecs *= mc.Horizon
		if mc.WarmupSecs < 5 {
			mc.WarmupSecs = 5
		}
	}
}

// MegaResult is one mega run's protocol outcomes plus its process-level
// cost metrics.
type MegaResult struct {
	N, Workers int
	Shards     int
	Giga       bool
	CellNoise  bool
	// Dense records that the run opted out of lazy membership; it
	// suffixes the bench name so the A/B variants coexist in BENCH.json.
	Dense      bool
	Lookups    int
	Hits       int
	Intersects int
	ChurnFails int
	ChurnJoins int
	Report     check.Report
	// Events is how many engine events the run executed.
	Events uint64
	// WallSecs is the real elapsed time of the whole run (build through
	// final drain).
	WallSecs float64
	// Mallocs and AllocBytes are the runtime allocation deltas over the
	// run; PeakHeapBytes is the maximum live heap sampled every few
	// simulated seconds.
	Mallocs       uint64
	AllocBytes    uint64
	PeakHeapBytes uint64
}

// HitRatio is the measured lookup hit fraction.
func (r MegaResult) HitRatio() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Lookups)
}

// IntersectRatio is the measured intersection fraction.
func (r MegaResult) IntersectRatio() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Intersects) / float64(r.Lookups)
}

// BenchLine renders the run in go-bench format so cmd/benchjson can fold it
// into BENCH.json: one iteration whose ns/op, B/op, and allocs/op cover the
// whole scenario, plus peak-heap and event-count custom metrics.
func (r MegaResult) BenchLine() string {
	name := "Mega"
	if r.Giga {
		name = "Giga"
	}
	variant := ""
	if r.Dense {
		variant = "/dense=1"
	}
	return fmt.Sprintf("Benchmark%sScenario/n=%d/workers=%d/shards=%d%s 1 %d ns/op %d B/op %d allocs/op %d peak-heap-B %d events",
		name, r.N, r.Workers, r.Shards, variant, int64(r.WallSecs*1e9), r.AllocBytes, r.Mallocs, r.PeakHeapBytes, r.Events)
}

// Table renders the run for pqexp output.
func (r MegaResult) Table() Table {
	mode := "cellnoise"
	if !r.CellNoise {
		mode = "exact"
	}
	tier := "mega"
	if r.Giga {
		tier = "giga"
	}
	return Table{
		Title: fmt.Sprintf("%s — %d-node SINR/DCF scale run (%s, workers=%d, shards=%d)",
			tier, r.N, mode, r.Workers, r.Shards),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"lookups", istr(r.Lookups)},
			{"hit ratio", f2(r.HitRatio())},
			{"intersect ratio", f2(r.IntersectRatio())},
			{"churn fails/joins", fmt.Sprintf("%d/%d", r.ChurnFails, r.ChurnJoins)},
			{"invariant violations", istr(r.Report.Violations)},
			{"events", fmt.Sprintf("%d", r.Events)},
			{"wall clock", fmt.Sprintf("%.2fs", r.WallSecs)},
			{"allocs", fmt.Sprintf("%d (%d MB)", r.Mallocs, r.AllocBytes>>20)},
			{"peak heap", fmt.Sprintf("%d MB", r.PeakHeapBytes>>20)},
		},
	}
}

// RunMega executes one mega scenario. Deterministic per (config, Workers
// included only as throughput): the simulation outcome depends on the seed
// and model knobs, never on the worker count.
func RunMega(mc MegaConfig) MegaResult {
	mc.fillDefaults()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs, startAlloc := ms.Mallocs, ms.TotalAlloc
	startWall := time.Now()

	sc := Scenario{
		N: mc.N, Stack: netstack.StackSINR, Seed: mc.Seed,
		Workers: mc.Workers, Shards: mc.Shards, CellNoise: !mc.CellNoiseOff,
		OracleRouting: !mc.AODV,
		// The scale posture: draw-on-demand membership views (opt out for
		// A/B runs) and the oracle's route memo with sharded prefetch.
		LazyMembership:  !mc.DenseMembership,
		OracleNeighbors: mc.OracleNeighbors,
		// Continuous churn over the lookup phase (sets the join pool).
		ChurnFailRate: mc.ChurnRate, ChurnJoinRate: mc.ChurnRate,
		ChurnDurationSecs:     float64(mc.Lookups) * 0.5,
		MembershipRefreshSecs: 20,
		Advertisements:        mc.Advertisements,
		Lookups:               mc.Lookups, LookupNodes: mc.LookupNodes,
		WarmupSecs: mc.WarmupSecs,
	}
	sc.Quorum = mixConfig(mc.N, quorum.Random, quorum.Random)
	sc.fillDefaults()

	joiners := sc.joinSlots()
	total := sc.N + joiners
	engine, net, _, members, sys := buildStack(sc)
	defer engine.StopWorkers()
	startEvents := engine.Processed()

	inj := faults.New(net)
	suite := check.NewSuite(net, sys)
	suite.SetPartitionOracle(inj.Partitioned)
	rng := engine.NewStream()
	scheduleRng := engine.NewStream()

	// Peak-heap sampling every 5 simulated seconds: cheap enough to leave
	// on, frequent enough to catch the lookup-phase high-water mark.
	var peak uint64
	heapTicker := sim.NewTicker(engine, 0, 5, func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	})
	defer heapTicker.Stop()

	engine.Run(mc.WarmupSecs)

	// Advertise phase.
	keys := make([]string, mc.Advertisements)
	for i := range keys {
		keys[i] = fmt.Sprintf("mega-key-%d", i)
		i := i
		engine.Schedule(float64(i)*1.0, func() {
			suite.Advertise(net.RandomAliveID(rng), keys[i], "v", nil)
		})
	}
	engine.Run(engine.Now() + float64(mc.Advertisements)*1.0 + 20)

	// Lookup phase with churn and faults live.
	lookupSpan := float64(mc.Lookups) * 0.5
	proc := churn.New(net, churn.Config{FailRate: mc.ChurnRate, JoinRate: mc.ChurnRate})
	fresh := make([]int, 0, joiners)
	for id := sc.N; id < total; id++ {
		fresh = append(fresh, id)
	}
	proc.SetFreshPool(fresh)
	proc.OnJoin(func(id int) {
		sys.ResetNode(id)
		members.RefreshNode(id)
	})
	inj.Schedule(faults.RandomSchedule(scheduleRng, faults.ScheduleConfig{
		HorizonSecs: lookupSpan,
		Episodes:    2,
		Severity:    mc.Severity,
		N:           mc.N,
	}))
	proc.Start()
	engine.Schedule(lookupSpan, proc.Stop)

	res := MegaResult{N: mc.N, Workers: mc.Workers, Shards: mc.Shards, Giga: mc.Giga, CellNoise: !mc.CellNoiseOff, Dense: mc.DenseMembership}
	origins := make([]int, mc.LookupNodes)
	for i := range origins {
		origins[i] = net.RandomAliveID(rng)
	}
	for i := 0; i < mc.Lookups; i++ {
		origin := origins[i%len(origins)]
		key := keys[rng.Intn(len(keys))]
		engine.Schedule(float64(i)*0.5, func() {
			if !net.Alive(origin) {
				return
			}
			res.Lookups++
			suite.Lookup(origin, key, func(lr quorum.LookupResult) {
				if lr.Hit {
					res.Hits++
				}
				if lr.Intersected {
					res.Intersects++
				}
			})
		})
	}
	engine.Run(engine.Now() + lookupSpan + sc.Quorum.LookupTimeout + 30)

	res.Report = suite.Final()
	cs := proc.Stats()
	res.ChurnFails, res.ChurnJoins = cs.Fails, cs.Joins
	res.Events = engine.Processed() - startEvents

	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	res.WallSecs = time.Since(startWall).Seconds()
	res.Mallocs = ms.Mallocs - startMallocs
	res.AllocBytes = ms.TotalAlloc - startAlloc
	res.PeakHeapBytes = peak
	return res
}
