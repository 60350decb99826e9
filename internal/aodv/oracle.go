package aodv

import (
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Router is the multihop unicast service the quorum layer consumes. Two
// implementations exist: Routing (AODV, with discovery floods and control
// overhead) and Oracle (zero-overhead shortest paths computed from the
// instantaneous neighbor graph). Swapping them isolates the paper's "cost
// of establishing the routes" from the "cost of using the routes"
// (Section 4.1).
type Router interface {
	// Send routes inner from src to dst; done (may be nil) reports
	// whether the packet was handed off toward a live route.
	Send(src, dst int, inner *netstack.Packet, done func(ok bool))
	// SendScoped is Send limited to maxTTL hops; it fails fast when the
	// destination is farther.
	SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool))
	// AddTransitTap observes routed packets at transit nodes (RANDOM-OPT).
	AddTransitTap(id int, tap TransitTap)
	// HasRoute reports whether src can currently reach dst.
	HasRoute(src, dst int) bool
}

var (
	_ Router = (*Routing)(nil)
	_ Router = (*Oracle)(nil)
)

// Oracle is an idealized routing service: each send follows a hop-by-hop
// shortest path computed on the current neighbor graph, with no control
// traffic. Use it as a baseline that isolates quorum-protocol costs from
// route-discovery costs.
type Oracle struct {
	net    *netstack.Network
	engine *sim.Engine
	taps   [][]TransitTap

	// cache answers every next-hop query from per-destination distance
	// fields, built on demand or by sharded prefetch (routecache.go).
	cache *routeMemo

	// DataDrops counts packets dropped because no path existed or a hop
	// failed.
	DataDrops uint64
}

// oracleMsg is the hop-by-hop envelope (TTL carried on the packet).
type oracleMsg struct {
	Inner *netstack.Packet
}

// oracleHandler adapts netstack dispatch.
type oracleHandler struct{ o *Oracle }

// HandlePacket implements netstack.Handler.
func (h *oracleHandler) HandlePacket(n *netstack.Node, pkt *netstack.Packet, from int) {
	h.o.handleData(n, pkt, from)
}

// NewOracle installs the oracle router on all nodes of net.
func NewOracle(net *netstack.Network) *Oracle {
	o := &Oracle{
		net:    net,
		engine: net.Engine(),
		taps:   make([][]TransitTap, net.N()),
	}
	o.cache = newRouteMemo(o, RouteCacheConfig{})
	h := &oracleHandler{o: o}
	for id := 0; id < net.N(); id++ {
		net.Node(id).Register(netstack.ProtoRouted, h)
	}
	return o
}

// AddTransitTap implements Router.
func (o *Oracle) AddTransitTap(id int, tap TransitTap) {
	o.taps[id] = append(o.taps[id], tap)
}

// HasRoute implements Router.
func (o *Oracle) HasRoute(src, dst int) bool {
	_, ok := o.nextHop(src, dst, 0)
	return ok
}

// Send implements Router.
func (o *Oracle) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	o.send(src, dst, inner, 0, done)
}

// SendScoped implements Router.
func (o *Oracle) SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	if maxTTL <= 0 {
		maxTTL = 1
	}
	o.send(src, dst, inner, maxTTL, done)
}

func (o *Oracle) send(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	node := o.net.Node(src)
	if !node.Alive() {
		o.fail(done)
		return
	}
	if src == dst {
		node.DeliverLocal(inner, src)
		if done != nil {
			done(true)
		}
		return
	}
	next, ok := o.nextHop(src, dst, maxTTL)
	if !ok {
		o.fail(done)
		return
	}
	ttl := maxTTL
	if ttl == 0 {
		ttl = o.net.N() // effectively unbounded
	}
	pkt := &netstack.Packet{
		Proto: netstack.ProtoRouted, Src: src, Dst: dst,
		TTL: ttl, Bytes: inner.Bytes + dataEnvelopeBytes, Hops: inner.Hops,
		Payload: &oracleMsg{Inner: inner},
	}
	node.SendOneHop(next, pkt, func(ok bool) {
		if done != nil {
			done(ok)
		}
		if !ok {
			o.DataDrops++
		}
	})
}

func (o *Oracle) fail(done func(bool)) {
	o.DataDrops++
	if done != nil {
		done(false)
	}
}

// handleData forwards a routed envelope toward its destination.
func (o *Oracle) handleData(n *netstack.Node, pkt *netstack.Packet, from int) {
	env, ok := pkt.Payload.(*oracleMsg)
	if !ok {
		return
	}
	if pkt.Dst == n.ID() {
		inner := env.Inner.Clone()
		inner.Hops = pkt.Hops + 1
		n.DeliverLocal(inner, from)
		return
	}
	for _, tap := range o.taps[n.ID()] {
		inner := env.Inner.Clone()
		inner.Hops = pkt.Hops + 1
		if tap(n, inner) {
			return
		}
	}
	if pkt.TTL <= 1 {
		o.DataDrops++
		return
	}
	next, found := o.nextHop(n.ID(), pkt.Dst, pkt.TTL-1)
	if !found {
		o.DataDrops++
		return
	}
	fwd := pkt.Clone()
	fwd.TTL--
	fwd.Hops++
	n.SendOneHop(next, fwd, func(ok bool) {
		if !ok {
			o.DataDrops++
		}
	})
}

// nextHop returns the first hop of a shortest path from src to dst within
// maxTTL hops (0 = unbounded) on the live neighbor graph: among all
// shortest paths, the one whose first hop has the lowest id. The route
// memo answers it from per-destination distance fields (routecache.go).
// A dead source other than dst is unreachable.
func (o *Oracle) nextHop(src, dst int, maxTTL int) (int, bool) {
	if src == dst {
		return src, true
	}
	return o.cache.nextHop(src, dst, maxTTL)
}
