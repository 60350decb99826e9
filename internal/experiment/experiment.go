// Package experiment reproduces the paper's simulation study: it builds a
// full stack (mobility → PHY/MAC → AODV → membership → quorum), runs the
// paper's two-phase workload (advertisements, then lookups; Section 8),
// injects churn between the phases when asked, and reports the metrics the
// figures plot — hit ratio, intersection probability, messages per
// operation with and without routing overhead, and reply-drop counts —
// averaged over seeds.
package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"probquorum/internal/aodv"
	"probquorum/internal/churn"
	"probquorum/internal/membership"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// Scenario describes one simulation run. Zero values take the paper's
// defaults (Fig. 2) where they exist.
type Scenario struct {
	// N is the node count (paper: 50–800).
	N int
	// AvgDegree is the target density (paper default: 10).
	AvgDegree float64
	// Stack selects fidelity; default netstack.StackSINR.
	Stack netstack.StackKind
	// SpeedMin/SpeedMax are random-waypoint speeds in m/s; both zero
	// means a static network. Paper default mobile range: 0.5–2.
	SpeedMin, SpeedMax float64
	// PauseSecs is the waypoint pause (paper: 30).
	PauseSecs float64
	// Quorum is the strategy mix and sizing.
	Quorum quorum.Config
	// Advertisements and Lookups size the workload (paper: 100 and 1000,
	// the latter from LookupNodes=25 random nodes).
	Advertisements, Lookups, LookupNodes int
	// AdvertiseGapSecs and LookupGapSecs pace the phases.
	AdvertiseGapSecs, LookupGapSecs float64
	// WarmupSecs runs the network before the workload (paper: 200).
	WarmupSecs float64
	// Seed drives all randomness.
	Seed int64
	// FailFraction / JoinFraction inject churn between the phases: the
	// fraction of N to crash and to newly join (Section 8.7). Joining
	// nodes are pre-allocated and kept down until the churn point.
	FailFraction, JoinFraction float64
	// ChurnFailRate / ChurnJoinRate run a *continuous* churn process over
	// the lookup phase instead: Poisson fail and join events in nodes per
	// second (the §6.1 process model). Joining nodes come from a
	// pre-allocated fresh pool, then from reboots of crashed nodes; every
	// joiner starts with volatile state cleared. Mutually exclusive with
	// the one-shot FailFraction/JoinFraction churn.
	ChurnFailRate, ChurnJoinRate float64
	// ChurnStartSecs delays the continuous process relative to the start
	// of the lookup phase.
	ChurnStartSecs float64
	// ChurnDurationSecs bounds the continuous process; zero runs it for
	// the whole lookup-issue span.
	ChurnDurationSecs float64
	// JoinCapacity overrides how many fresh node slots are pre-allocated
	// for continuous joins; zero derives ⌈JoinRate·duration⌉ plus slack.
	JoinCapacity int
	// DecayBucketSecs, when positive, buckets lookup outcomes by issue
	// time into Result.Decay — the measured intersection probability over
	// time as churn accumulates, comparable to §6.1's ε^(1−f(t)).
	DecayBucketSecs float64
	// RxLossProb drops each received frame at the receiver with this
	// probability on any stack (per-hop loss injection; counted under
	// netstack.CtrLossDrops).
	RxLossProb float64
	// MembershipRefreshSecs overrides the membership view refresh period
	// (default 30 s). Under continuous churn the refresh period bounds how
	// stale views get — §6.1's closed forms assume fresh membership, so the
	// decay-validation runs shorten it.
	MembershipRefreshSecs float64
	// Estimation enables the membership layer's continuous network-size
	// estimator (birthday-paradox over walk samples) for adaptive runs.
	Estimation membership.EstimationConfig
	// AdjustLookupSize recomputes |Qℓ| for the post-churn network size
	// (Section 6.1's "adjusted" variant, used by Fig. 14(f)).
	AdjustLookupSize bool
	// LossProb is per-attempt loss for the ideal stack.
	LossProb float64
	// IdealHopDelay adds fixed per-hop latency on the ideal stack,
	// surfacing mobility-induced path breakage (Fig. 13) without the
	// full SINR stack's cost.
	IdealHopDelay float64
	// OracleRouting replaces AODV with the zero-overhead oracle router,
	// isolating the paper's "cost of establishing the routes" from the
	// "cost of using the routes" (Section 4.1).
	OracleRouting bool
	// LookupAbsentKeys makes every lookup query a never-advertised key,
	// measuring the paper's "cost of a lookup miss" (Fig. 16): the whole
	// target quorum is paid, with no early-halting savings.
	LookupAbsentKeys bool
	// Workers sets the engine's parallel-phase width (sim.SetWorkers):
	// per-broadcast PHY evaluation fans out across this many goroutines.
	// Results are bit-identical at any setting; 0 or 1 runs serially.
	Workers int
	// CellNoise selects the SINR stack's cell-aggregated far-field
	// interference model (netstack.Config.CellNoise) — the approximate
	// scale-out mode used by the mega scenario.
	CellNoise bool
	// Shards sets the engine's sharded-phase width (sim.SetShards): the
	// route-prefetch and other ShardedEval phases fan out across this many
	// spatial shards. Results are bit-identical at any setting; 0 or 1
	// runs serially (DESIGN.md §15).
	Shards int
	// LazyMembership switches the membership service to draw-on-demand
	// views (membership.Config.Lazy): O(1) refreshes and no materialized
	// [][]int views — the memory posture the mega/giga tiers need. Lazy
	// draws are a different (equally uniform) sample than the eager shared
	// stream, so recorded eager figures keep this off.
	LazyMembership bool
	// OracleNeighbors swaps the heartbeat neighbor protocol for the
	// geometric oracle provider (no beacon traffic) — the giga tier's way
	// to drop 100k nodes' beacon load from the PHY while keeping the
	// routed workload honest.
	OracleNeighbors bool

	// noPrefetch hands the quorum layer the router without its
	// aodv.RoutePrefetcher side, so route fields are only ever built on
	// first use — the purity check of the route memo.
	noPrefetch bool
}

func (sc *Scenario) fillDefaults() {
	if sc.N == 0 {
		sc.N = 100
	}
	if sc.AvgDegree == 0 {
		sc.AvgDegree = 10
	}
	if sc.Stack == 0 {
		sc.Stack = netstack.StackSINR
	}
	if sc.PauseSecs == 0 {
		sc.PauseSecs = 30
	}
	if sc.Advertisements == 0 {
		sc.Advertisements = 100
	}
	if sc.Lookups == 0 {
		sc.Lookups = 1000
	}
	if sc.LookupNodes == 0 {
		sc.LookupNodes = 25
	}
	if sc.AdvertiseGapSecs == 0 {
		sc.AdvertiseGapSecs = 1.0
	}
	if sc.LookupGapSecs == 0 {
		sc.LookupGapSecs = 0.35
	}
	if sc.WarmupSecs == 0 {
		if sc.Stack == netstack.StackIdeal {
			sc.WarmupSecs = 30
		} else {
			sc.WarmupSecs = 60
		}
	}
}

// continuousChurn reports whether the scenario runs the Poisson process
// (as opposed to the one-shot between-phase churn).
func (sc *Scenario) continuousChurn() bool {
	return sc.ChurnFailRate > 0 || sc.ChurnJoinRate > 0
}

// lookupSpanSecs is the duration of the lookup-issue phase. Call after
// fillDefaults.
func (sc *Scenario) lookupSpanSecs() float64 {
	return float64(sc.Lookups) * sc.LookupGapSecs
}

// churnDuration is how long the continuous process runs. Call after
// fillDefaults.
func (sc *Scenario) churnDuration() float64 {
	if sc.ChurnDurationSecs > 0 {
		return sc.ChurnDurationSecs
	}
	return sc.lookupSpanSecs()
}

// joinSlots is how many extra node slots are pre-allocated (kept down until
// they join). Call after fillDefaults.
func (sc *Scenario) joinSlots() int {
	if sc.continuousChurn() {
		if sc.JoinCapacity > 0 {
			return sc.JoinCapacity
		}
		return int(math.Ceil(sc.ChurnJoinRate*sc.churnDuration())) + 2
	}
	return int(math.Round(sc.JoinFraction * float64(sc.N)))
}

// Result aggregates one run's measurements (or a mean over seeds).
type Result struct {
	// HitRatio is the fraction of lookups whose reply reached the origin
	// — the paper's hit ratio / intersection probability measurement.
	HitRatio float64
	// IntersectRatio counts lookups whose quorum touched a holder of the
	// key, regardless of reply fate (Fig. 13(b)).
	IntersectRatio float64
	// ReplyDropRatio is IntersectRatio − HitRatio expressed over
	// intersecting lookups (Fig. 13(c)'s reply loss).
	ReplyDropRatio float64
	// AdvertiseAppMsgs is application messages per advertise operation.
	AdvertiseAppMsgs float64
	// AdvertiseRoutingMsgs is AODV control messages per advertise.
	AdvertiseRoutingMsgs float64
	// LookupAppMsgs is application messages per lookup operation.
	LookupAppMsgs float64
	// LookupRoutingMsgs is AODV control messages per lookup.
	LookupRoutingMsgs float64
	// AvgPlaced is the mean advertise quorum actually written.
	AvgPlaced float64
	// AvgLatency is the mean hit latency in seconds.
	AvgLatency float64
	// AvgHopLatency is the mean per-transmission MAC latency over the
	// whole run (netstack's LatHop accumulator).
	AvgHopLatency float64
	// LossDrops counts frames dropped by the injected per-hop loss
	// process over the whole run.
	LossDrops float64
	// ChurnFails / ChurnJoins count continuous-churn events over the run
	// (averaged over seeds).
	ChurnFails, ChurnJoins float64
	// Counters are the quorum protocol diagnostics.
	Counters quorum.Counters
	// Decay holds the per-time-bucket lookup outcomes when
	// DecayBucketSecs is set (counts are sums over merged runs).
	Decay []DecayPoint
	// LeakedOps counts operations still registered in the quorum system's
	// pending maps after the final drain (summed over merged runs) — the
	// drain assertion of the op-termination leak audit. Any nonzero value
	// is a leaked termination path: under open-loop load it is unbounded
	// memory, so tests gate it at exactly zero.
	LeakedOps float64
	// Runs is how many seeds were averaged.
	Runs int
}

// DecayPoint is one time bucket of the decay-over-time measurement: the
// outcomes of lookups *issued* within [T, T+DecayBucketSecs) seconds of the
// lookup phase start, plus the cumulative churned fraction at the bucket's
// end. Lookups whose origin had crashed by issue time are excluded — the
// §6.1 closed forms condition on a live client.
type DecayPoint struct {
	// T is the bucket start, seconds since the lookup phase began.
	T float64
	// Lookups, Hits, Intersects count issued lookups and their outcomes
	// (float64 so merged runs sum without conversion).
	Lookups, Hits, Intersects float64
	// FailedFrac is f(t) = cumulative fails / N sampled at the bucket
	// end, averaged over merged runs. 1−ε^(1−f(t)) is the §6.1 predicted
	// intersection probability for this bucket.
	FailedFrac float64
}

// HitRatio is the bucket's measured hit fraction.
func (d DecayPoint) HitRatio() float64 {
	if d.Lookups == 0 {
		return 0
	}
	return d.Hits / d.Lookups
}

// IntersectRatio is the bucket's measured intersection fraction.
func (d DecayPoint) IntersectRatio() float64 {
	if d.Lookups == 0 {
		return 0
	}
	return d.Intersects / d.Lookups
}

// buildStack constructs the full simulation stack for a scenario: engine,
// network, routing, membership, and the quorum system. Nodes beyond sc.N
// (join capacity) start failed.
func buildStack(sc Scenario) (*sim.Engine, *netstack.Network, aodv.Router, *membership.Service, *quorum.System) {
	sc.fillDefaults()
	engine := sim.NewEngine(sc.Seed)
	engine.SetWorkers(sc.Workers)
	engine.SetShards(sc.Shards)

	// Pre-allocate join capacity; joiners stay down until churn time.
	joiners := sc.joinSlots()
	total := sc.N + joiners

	cfg := netstack.Config{
		N: total, AvgDegree: sc.AvgDegree, Stack: sc.Stack,
		LossProb: sc.LossProb, IdealHopDelay: sc.IdealHopDelay,
		RxLossProb: sc.RxLossProb, CellNoise: sc.CellNoise,
	}
	if sc.OracleNeighbors {
		cfg.Neighbors = netstack.NeighborsOracle
	}
	// Area sized for the *initial* population, per the paper's scaling.
	cfg.Side = areaSide(sc.N, 200, sc.AvgDegree)
	if sc.SpeedMax > 0 {
		cfg.Mobility = mobility.NewWaypoint(engine.NewStream(), total, mobility.WaypointConfig{
			MinSpeed: sc.SpeedMin, MaxSpeed: sc.SpeedMax,
			Pause: sc.PauseSecs, Side: cfg.Side,
		}, nil)
	}
	net := netstack.New(engine, cfg)
	var routing aodv.Router
	if sc.OracleRouting {
		// The oracle's route memo prefetches on a spatial shard map over
		// true positions at build time — shardOf must stay pure during
		// phases, and node positions only enter it through this frozen
		// stripe assignment. The map decides where fields are built, never
		// an answer.
		oracle := aodv.NewOracle(net)
		k := sc.Shards
		if k < 1 {
			k = 1
		}
		sm := sim.NewShardMap(k, total, cfg.Side, func(id int) float64 {
			return net.Position(id).X
		})
		oracle.EnableRouteCache(aodv.RouteCacheConfig{Shards: sm})
		routing = oracle
	} else {
		acfg := aodv.DefaultConfig()
		if sc.IdealHopDelay > 0 {
			// The ring-search timeouts assume NodeTraversalTime per
			// hop; keep them consistent with the inflated hop latency.
			if t := 2 * sc.IdealHopDelay; t > acfg.NodeTraversalTime {
				acfg.NodeTraversalTime = t
			}
		}
		routing = aodv.New(net, acfg)
	}
	members := membership.New(net, membership.Config{
		ViewSize:    membership.DefaultViewSize(sc.N),
		RefreshSecs: sc.MembershipRefreshSecs,
		Estimation:  sc.Estimation,
		Lazy:        sc.LazyMembership,
	})
	qr := routing
	if sc.noPrefetch {
		qr = struct{ aodv.Router }{routing}
	}
	sys := quorum.New(net, qr, members, sc.Quorum)
	for id := sc.N; id < total; id++ {
		net.Fail(id) // joiners wait in the wings
		// Release the view the initial refresh materialized for this
		// not-yet-joined slot: dead nodes queued for reuse must not hold
		// views (the draw itself already happened, keeping the shared
		// stream — and every recorded figure — unchanged).
		members.RefreshNode(id)
	}
	return engine, net, routing, members, sys
}

// Run executes one scenario and returns its measurements.
func Run(sc Scenario) Result {
	sc.fillDefaults()
	joiners := sc.joinSlots()
	total := sc.N + joiners
	engine, net, _, members, sys := buildStack(sc)
	defer engine.StopWorkers()
	rng := engine.NewStream()

	engine.Run(sc.WarmupSecs)

	// Phase 1: advertisements by random nodes (paper: 100, RANDOM 2√n).
	keys := make([]string, sc.Advertisements)
	adStart := net.Stats().Snapshot()
	var placedSum, adDone int
	for i := 0; i < sc.Advertisements; i++ {
		keys[i] = fmt.Sprintf("item-%d", i)
		origin := net.RandomAliveID(rng)
		key, value := keys[i], fmt.Sprintf("loc-of-%d", i)
		engine.Schedule(float64(i)*sc.AdvertiseGapSecs, func() {
			sys.Advertise(origin, key, value, func(r quorum.AdvertiseResult) {
				placedSum += r.Placed
				adDone++
			})
		})
	}
	engine.Run(engine.Now() + float64(sc.Advertisements)*sc.AdvertiseGapSecs + 30)
	adDiff := net.Stats().DiffSince(adStart)

	// Churn: either the continuous Poisson process over the lookup phase,
	// or the paper's one-shot event between the phases (Section 8.7).
	var proc *churn.Process
	if sc.continuousChurn() {
		proc = churn.New(net, churn.Config{
			FailRate: sc.ChurnFailRate, JoinRate: sc.ChurnJoinRate,
		})
		fresh := make([]int, 0, joiners)
		for id := sc.N; id < total; id++ {
			fresh = append(fresh, id)
		}
		proc.SetFreshPool(fresh)
		proc.OnJoin(func(id int) {
			// A joiner — fresh slot or rebooted crash — carries no quorum
			// state and bootstraps a membership view immediately; the rest
			// of the network's views catch up at the next refresh, stale in
			// between exactly as a real membership service's would be.
			sys.ResetNode(id)
			members.RefreshNode(id)
		})
		engine.Schedule(sc.ChurnStartSecs, proc.Start)
		engine.Schedule(sc.ChurnStartSecs+sc.churnDuration(), proc.Stop)
	} else {
		fails := int(math.Round(sc.FailFraction * float64(sc.N)))
		if fails > 0 {
			for _, id := range pickDistinct(rng, net, sc.N, fails) {
				net.Fail(id)
			}
		}
		for id := sc.N; id < total; id++ {
			net.Revive(id)
		}
		if fails > 0 || joiners > 0 {
			members.RefreshAll()
			if sc.AdjustLookupSize {
				sys.SetLookupSize(adjustedLookupSize(sc.Quorum.LookupSize, sc.N, net.NumAlive()))
			}
			engine.Run(engine.Now() + 5)
		}
	}

	// Phase 2: lookups from LookupNodes random nodes (paper: 1000 by 25).
	lkStart := net.Stats().Snapshot()
	lookupOrigins := make([]int, sc.LookupNodes)
	for i := range lookupOrigins {
		lookupOrigins[i] = net.RandomAliveID(rng)
	}
	// Decay buckets slice the lookup phase by issue time; each bucket's
	// churned fraction f(t) is sampled at its end for the §6.1 comparison.
	var decay []DecayPoint
	if sc.DecayBucketSecs > 0 {
		nb := int(math.Ceil(sc.lookupSpanSecs() / sc.DecayBucketSecs))
		if nb < 1 {
			nb = 1
		}
		decay = make([]DecayPoint, nb)
		for b := range decay {
			decay[b].T = float64(b) * sc.DecayBucketSecs
			b := b
			engine.Schedule(float64(b+1)*sc.DecayBucketSecs, func() {
				if proc != nil {
					decay[b].FailedFrac = float64(proc.Stats().Fails) / float64(sc.N)
				}
			})
		}
	}

	var hits, intersects, lkDone int
	var latencySum float64
	for i := 0; i < sc.Lookups; i++ {
		origin := lookupOrigins[i%len(lookupOrigins)]
		key := keys[rng.Intn(len(keys))]
		if sc.LookupAbsentKeys {
			key = fmt.Sprintf("absent-%d", i)
		}
		issueAt := float64(i) * sc.LookupGapSecs
		bucket := -1
		if len(decay) > 0 {
			if b := int(issueAt / sc.DecayBucketSecs); b < len(decay) {
				bucket = b
			}
		}
		engine.Schedule(issueAt, func() {
			if !net.Alive(origin) {
				lkDone++ // origin died under churn: a global miss, but
				return   // excluded from buckets (§6.1 assumes a live client)
			}
			if bucket >= 0 {
				decay[bucket].Lookups++
			}
			sys.Lookup(origin, key, func(r quorum.LookupResult) {
				lkDone++
				if r.Hit {
					hits++
					latencySum += r.Latency
				}
				if r.Intersected {
					intersects++
				}
				if bucket >= 0 {
					if r.Hit {
						decay[bucket].Hits++
					}
					if r.Intersected {
						decay[bucket].Intersects++
					}
				}
			})
		})
	}
	lookupSpan := sc.lookupSpanSecs()
	// Drain long enough for the last lookup to exhaust its retry ladder.
	qc := sys.Config()
	drain := qc.LookupTimeout + 30
	for a := 1; a <= qc.LookupRetries; a++ {
		drain += qc.RetryBackoffSecs*float64(int(1)<<(a-1)) + qc.LookupTimeout
	}
	engine.Run(engine.Now() + lookupSpan + drain)
	lkDiff := net.Stats().DiffSince(lkStart)

	res := Result{Runs: 1, Counters: sys.Counters(), Decay: decay}
	// Drain assertion: nothing may remain pending past its settlement
	// horizon (ops still inside it — e.g. from a re-advertise tick during
	// the drain tail — are in flight, not leaked).
	leakedLk, leakedAds := sys.LeakedOps()
	res.LeakedOps = float64(leakedLk + leakedAds)
	res.AvgHopLatency = net.Stats().Latency(netstack.LatHop).Mean()
	res.LossDrops = float64(net.Stats().Get(netstack.CtrLossDrops))
	if proc != nil {
		cs := proc.Stats()
		res.ChurnFails = float64(cs.Fails)
		res.ChurnJoins = float64(cs.Joins)
	}
	if sc.Lookups > 0 {
		res.HitRatio = float64(hits) / float64(sc.Lookups)
		res.IntersectRatio = float64(intersects) / float64(sc.Lookups)
		res.LookupAppMsgs = float64(lkDiff.Get(netstack.CtrAppMsgs)) / float64(sc.Lookups)
		res.LookupRoutingMsgs = float64(lkDiff.Get(netstack.CtrRoutingMsgs)) / float64(sc.Lookups)
	}
	if intersects > 0 {
		res.ReplyDropRatio = float64(intersects-hits) / float64(intersects)
	}
	if hits > 0 {
		res.AvgLatency = latencySum / float64(hits)
	}
	if sc.Advertisements > 0 {
		res.AdvertiseAppMsgs = float64(adDiff.Get(netstack.CtrAppMsgs)) / float64(sc.Advertisements)
		res.AdvertiseRoutingMsgs = float64(adDiff.Get(netstack.CtrRoutingMsgs)) / float64(sc.Advertisements)
		res.AvgPlaced = float64(placedSum) / float64(sc.Advertisements)
	}
	return res
}

// RunSeeds averages the scenario over `seeds` runs with seeds base,
// base+1, … (the paper averages 10 runs per data point). It is the
// single-point, single-worker form of RunSweep.
func RunSeeds(sc Scenario, seeds int) Result {
	res, _ := RunSweep(context.Background(), Sweep{Points: []Point{{Scenario: sc, Seeds: seeds}}}, 1)
	return res[0]
}

// pickDistinct draws k distinct live ids among 0..limit-1.
func pickDistinct(rng *rand.Rand, net *netstack.Network, limit, k int) []int {
	chosen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		id := rng.Intn(limit)
		if !chosen[id] && net.Alive(id) {
			chosen[id] = true
			out = append(out, id)
		}
		if len(chosen) >= limit {
			break
		}
	}
	return out
}

func areaSide(n int, r, davg float64) float64 {
	return math.Sqrt(math.Pi * r * r * float64(n) / davg)
}

// adjustedLookupSize rescales |Qℓ| with √(n(t)/n(0)) (Section 6.1's
// |Qℓ(t)| = C√n(t)).
func adjustedLookupSize(base, n0, nt int) int {
	if base <= 0 || n0 <= 0 {
		return base
	}
	k := int(math.Round(float64(base) * math.Sqrt(float64(nt)/float64(n0))))
	if k < 1 {
		k = 1
	}
	return k
}
