package aodv

import (
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// oracleWorld builds a static topology with an Oracle router on the ideal
// stack.
func oracleWorld(pts []geom.Point, side float64) (*sim.Engine, *netstack.Network, *Oracle) {
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: side, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	return e, net, NewOracle(net)
}

// refNextHop is the reference the route memo must reproduce: a forward BFS
// from src over the live neighbor lists, expanding each node's neighbors in
// ascending id order and stopping at depth maxTTL (0 = unbounded). It
// returns the first hop of the path on which it first reaches dst. A dead
// source other than dst is unreachable.
func refNextHop(net *netstack.Network, src, dst, maxTTL int) (int, bool) {
	if src == dst {
		return src, true
	}
	if !net.Alive(src) {
		return 0, false
	}
	parent := map[int]int{src: -1}
	type item struct{ id, depth int }
	queue := []item{{src, 0}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if maxTTL > 0 && cur.depth >= maxTTL {
			continue
		}
		for _, nb := range net.Neighbors(cur.id) {
			if _, seen := parent[nb]; seen {
				continue
			}
			parent[nb] = cur.id
			if nb == dst {
				at := nb
				for parent[at] != src {
					at = parent[at]
				}
				return at, true
			}
			queue = append(queue, item{nb, cur.depth + 1})
		}
	}
	return 0, false
}

// diameter is the longest finite reference hop distance between live nodes.
func diameter(net *netstack.Network) int {
	longest := 0
	for src := 0; src < net.N(); src++ {
		if !net.Alive(src) {
			continue
		}
		dist := map[int]int{src: 0}
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			for _, nb := range net.Neighbors(queue[head]) {
				if _, ok := dist[nb]; !ok {
					dist[nb] = dist[queue[head]] + 1
					queue = append(queue, nb)
					if dist[nb] > longest {
						longest = dist[nb]
					}
				}
			}
		}
	}
	return longest
}

// memoWorld is one network under test. The memo and the reference run on
// twin worlds built from the same seed and driven by the same schedule, so
// the reference's neighbor reads can never refresh state the memo depends
// on.
type memoWorld struct {
	e   *sim.Engine
	net *netstack.Network
	o   *Oracle
}

func newMemoWorld(seed int64, cfg netstack.Config, mobile bool) memoWorld {
	e := sim.NewEngine(seed)
	if mobile {
		cfg.Side = geom.AreaSide(cfg.N, 200, 10)
		cfg.Mobility = mobility.NewWaypoint(e.NewStream(), cfg.N, mobility.WaypointConfig{
			MinSpeed: 5, MaxSpeed: 20, Side: cfg.Side,
		}, nil)
	}
	net := netstack.New(e, cfg)
	return memoWorld{e: e, net: net, o: NewOracle(net)}
}

// compareMemo checks every (src, dst, maxTTL ∈ {0,1,2,3,diameter}) at the
// worlds' current instant, in an order drawn from rng — which fields exist
// and how stale they are depends on the order of earlier queries —
// prefetching a few destinations first when asked (a prefetch may build
// fields, never change an answer). The prefetch mixes destinations that
// have no field with the ones that hold a (possibly stale) field, new
// ones first, so that under a small field cap one batch both replaces
// and evicts.
func compareMemo(t *testing.T, label string, memo, ref memoWorld, rng *rand.Rand, prefetch bool) {
	t.Helper()
	n := ref.net.N()
	if prefetch {
		dsts := []int{0, n / 3}
		for _, dst := range memo.o.cache.order[memo.o.cache.head:] {
			dsts = append(dsts, int(dst))
		}
		dsts = append(dsts, n/2, n-1, n/3)
		memo.o.PrefetchRoutes(rng.Intn(n), dsts)
	}
	ttls := []int{0, 1, 2, 3, diameter(ref.net)}
	queries := rng.Perm(n * n * len(ttls))
	for _, q := range queries {
		src, dst, ttl := q/(n*len(ttls)), q/len(ttls)%n, ttls[q%len(ttls)]
		wantHop, wantOK := refNextHop(ref.net, src, dst, ttl)
		gotHop, gotOK := memo.o.nextHop(src, dst, ttl)
		if gotOK != wantOK || (wantOK && gotHop != wantHop) {
			t.Fatalf("%s t=%.2f: nextHop(%d, %d, ttl %d) = (%d, %v), BFS says (%d, %v)",
				label, ref.e.Now(), src, dst, ttl, gotHop, gotOK, wantHop, wantOK)
		}
	}
}

// TestRouteMemoMatchesBFS pins the route memo to the forward BFS it
// replaced: the same (hop, ok) for every source, destination and TTL, on
// symmetric oracle-provider graphs, asymmetric heartbeat graphs (receiver
// loss), and across churn flips and mobile timestamps between queries —
// also with a field cap far below the destination count, where every
// prefetch batch replaces stale fields and evicts others.
func TestRouteMemoMatchesBFS(t *testing.T) {
	type scenario struct {
		name     string
		cfg      netstack.Config
		mobile   bool
		maxTrees int
	}
	heartbeat := func(loss float64) netstack.Config {
		return netstack.Config{
			N: 24, Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsHeartbeat,
			HeartbeatSecs: 1, RxLossProb: loss,
		}
	}
	scenarios := []scenario{
		{name: "oracle-static", cfg: netstack.Config{N: 30, Stack: netstack.StackIdeal}},
		{name: "oracle-mobile", cfg: netstack.Config{N: 24, Stack: netstack.StackIdeal}, mobile: true},
		{name: "heartbeat-lossy", cfg: heartbeat(0.3)},
		{name: "heartbeat-mobile", cfg: heartbeat(0.1), mobile: true},
		{name: "heartbeat-capped", cfg: heartbeat(0.3), maxTrees: 2},
		{name: "oracle-mobile-capped", cfg: netstack.Config{N: 24, Stack: netstack.StackIdeal}, mobile: true, maxTrees: 3},
	}
	seeds, steps := int64(2), 30
	if testing.Short() {
		seeds, steps = 1, 15
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= seeds; seed++ {
			memo := newMemoWorld(seed, sc.cfg, sc.mobile)
			ref := newMemoWorld(seed, sc.cfg, sc.mobile)
			if sc.maxTrees > 0 {
				memo.o.EnableRouteCache(RouteCacheConfig{MaxTrees: sc.maxTrees})
			}
			rng := rand.New(rand.NewSource(seed))
			now := 3.0
			for step := 0; step < steps; step++ {
				memo.e.Run(now)
				ref.e.Run(now)
				compareMemo(t, sc.name, memo, ref, rng, step%3 == 1 || sc.maxTrees > 0)
				if rng.Intn(6) == 0 {
					// Flip a node's liveness between two queries at the
					// same instant.
					id := rng.Intn(sc.cfg.N)
					for _, w := range []memoWorld{memo, ref} {
						if w.net.Alive(id) {
							w.net.Fail(id)
						} else {
							w.net.Revive(id)
						}
					}
					compareMemo(t, sc.name+"/flip", memo, ref, rng, false)
				}
				// Short steps: some gaps hold a beacon or an expiry and
				// nothing else, which only an exact version can notice.
				now += 0.02 + 0.3*rng.Float64()
			}
		}
	}
}

// TestRouteMemoDeadEndpoints pins the dead-node contract: a dead source
// or destination is unreachable, except a node routing to itself.
func TestRouteMemoDeadEndpoints(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}}
	_, net, o := oracleWorld(pts, 1000)
	if _, ok := o.nextHop(0, 2, 0); !ok {
		t.Fatal("live line should route")
	}
	net.Fail(0)
	if _, ok := o.nextHop(0, 2, 0); ok {
		t.Fatal("dead source routed")
	}
	if _, ok := o.nextHop(2, 0, 0); ok {
		t.Fatal("dead destination reachable")
	}
	if hop, ok := o.nextHop(0, 0, 0); !ok || hop != 0 {
		t.Fatalf("self route = (%d, %v)", hop, ok)
	}
}

// TestRouteMemoQueryAllocFree pins the hot path: a next-hop query answered
// from a valid field allocates nothing.
func TestRouteMemoQueryAllocFree(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}}
	_, _, o := oracleWorld(pts, 1000)
	if hop, ok := o.nextHop(0, 3, 0); !ok || hop != 1 {
		t.Fatalf("nextHop(0, 3) = (%d, %v), want (1, true)", hop, ok)
	}
	allocs := testing.AllocsPerRun(200, func() {
		o.nextHop(0, 3, 0)
		o.nextHop(1, 3, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm nextHop allocates %.1f times per query pair", allocs)
	}
}

// TestOracleRouteCacheScopedDelivery runs the scoped/unreachable oracle
// scenario end to end: TTL-bounded sends must fail beyond their scope,
// succeed within it, and unreachable destinations must drop.
func TestOracleRouteCacheScopedDelivery(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}, {X: 5000, Y: 0}}
	e, net, o := oracleWorld(pts, 6000)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	var beyond, within, far *bool
	e.Schedule(0, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 2, func(ok bool) { beyond = &ok }) // 3 hops away
		o.Send(0, 4, innerPkt(0, 4), func(ok bool) { far = &ok })             // disconnected
	})
	e.Schedule(1, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 3, func(ok bool) { within = &ok }) // exactly in scope
	})
	e.Run(5)
	if beyond == nil || *beyond {
		t.Fatal("scoped send beyond TTL should fail")
	}
	if far == nil || *far {
		t.Fatal("send to a disconnected node should fail")
	}
	if within == nil || !*within {
		t.Fatal("scoped send within TTL should hand off")
	}
	if len(s.pkts) != 1 || s.pkts[0].Hops != 3 {
		t.Fatalf("scoped delivery: %d pkts", len(s.pkts))
	}
	if o.DataDrops == 0 {
		t.Fatal("drops not counted")
	}
}
