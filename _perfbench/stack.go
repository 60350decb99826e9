package main

import (
	"math"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// stackSpec is everything the benchmark needs to compose one simulation
// stack from the layers' public constructors. It carries the same knobs as
// the experiment harness's Scenario, in the same meaning, so the fidelity
// tests can hand identical parameters to both and compare the outcomes.
type stackSpec struct {
	// N is the initial population; Joiners extra slots start failed and
	// come up through the churn process.
	N, Joiners int
	// AvgDegree sizes the deployment area (the paper's scaling rule with
	// a 200 m nominal range).
	AvgDegree float64
	Stack     netstack.StackKind
	// CellNoise selects cell-aggregated far-field SINR interference.
	CellNoise bool
	// OracleNeighbors swaps heartbeat beacons for geometric neighbors.
	OracleNeighbors bool
	// OracleRouting swaps AODV for the zero-overhead oracle router;
	// RouteCache additionally enables its route-tree cache.
	OracleRouting, RouteCache bool
	// Shards is the engine's sharded-phase width (0 = serial).
	Shards int
	// LazyMembership selects draw-on-demand membership views;
	// RefreshSecs overrides the view refresh period (0 = default).
	LazyMembership bool
	RefreshSecs    float64
	// Quorum is the strategy mix and sizing.
	Quorum quorum.Config
}

// stack is one composed simulation: the layers a workload drives.
type stack struct {
	engine  *sim.Engine
	net     *netstack.Network
	router  aodv.Router
	members *membership.Service
	sys     *quorum.System
}

// dataDrops reads the router's drop counter, whichever router it is.
func (s *stack) dataDrops() uint64 {
	switch r := s.router.(type) {
	case *aodv.Oracle:
		return r.DataDrops
	case *aodv.Routing:
		return r.DataDrops
	}
	return 0
}

// buildStack composes engine → netstack → routing → membership → quorum
// for one seed, timing each constructor as a setup span. The order of
// constructors (and so of the engine's RNG streams) is the experiment
// harness's, which is what lets a benchmark run reproduce a harness run
// exactly. When the tracer is on, quorum.New receives a timing decorator
// of the router instead of the router itself.
func buildStack(sp stackSpec, seed int64, tr *tracer) *stack {
	st := &stack{}
	total := sp.N + sp.Joiners

	s := tr.begin(spSetupEngine, 0)
	st.engine = sim.NewEngine(seed)
	st.engine.SetShards(sp.Shards)
	tr.end(s)

	s = tr.begin(spSetupNetstack, 0)
	cfg := netstack.Config{
		N: total, AvgDegree: sp.AvgDegree, Stack: sp.Stack, CellNoise: sp.CellNoise,
		// Area sized for the initial population, per the paper's scaling.
		Side: math.Sqrt(math.Pi * 200 * 200 * float64(sp.N) / sp.AvgDegree),
	}
	if sp.OracleNeighbors {
		cfg.Neighbors = netstack.NeighborsOracle
	}
	st.net = netstack.New(st.engine, cfg)
	tr.end(s)

	s = tr.begin(spSetupAODV, 0)
	if sp.OracleRouting {
		oracle := aodv.NewOracle(st.net)
		if sp.RouteCache {
			k := sp.Shards
			if k < 1 {
				k = 1
			}
			net := st.net
			sm := sim.NewShardMap(k, total, cfg.Side, func(id int) float64 {
				return net.Position(id).X
			})
			// Heartbeat neighbors expire lazily, so trees get a one-beacon
			// time bound; the oracle provider's version counter is exact.
			ttl := 1.0
			if sp.OracleNeighbors {
				ttl = 0
			}
			oracle.EnableRouteCache(aodv.RouteCacheConfig{TTLSecs: ttl, Shards: sm})
		}
		st.router = oracle
	} else {
		st.router = aodv.New(st.net, aodv.DefaultConfig())
	}
	tr.end(s)

	s = tr.begin(spSetupMembership, 0)
	st.members = membership.New(st.net, membership.Config{
		ViewSize:    membership.DefaultViewSize(sp.N),
		RefreshSecs: sp.RefreshSecs,
		Lazy:        sp.LazyMembership,
	})
	tr.end(s)

	s = tr.begin(spSetupQuorum, 0)
	st.sys = quorum.New(st.net, tr.wrapRouter(st.router, sp.RouteCache), st.members, sp.Quorum)
	tr.end(s)

	// Joiner slots wait failed; their views are released so dead slots
	// hold none (the draw itself already happened at membership.New).
	s = tr.begin(spSetupNetstack, 0)
	for id := sp.N; id < total; id++ {
		st.net.Fail(id)
	}
	tr.end(s)
	s = tr.begin(spSetupMembership, 0)
	for id := sp.N; id < total; id++ {
		st.members.RefreshNode(id)
	}
	tr.end(s)
	return st
}
