package aodv

import (
	"math"

	"probquorum/internal/sim"
)

// RoutePrefetcher is implemented by routers that can bulk-prepare routing
// state for an imminent fan-out: the quorum layer calls it with the member
// set it is about to message, so the router can build all missing routes in
// one sharded parallel phase instead of serially on first use. Routers
// without route state to prepare do not implement it.
type RoutePrefetcher interface {
	PrefetchRoutes(origin int, dsts []int)
}

var _ RoutePrefetcher = (*Oracle)(nil)

// RouteCacheConfig configures the oracle's route memo. None of its fields
// can change an answer — they decide only when distance fields are built,
// kept, and where the build work runs.
type RouteCacheConfig struct {
	// TTLSecs, when positive, bounds how long a field may serve queries
	// after it was built. Validity already keys on the exact neighbor
	// version, so an age bound only forces earlier rebuilds. <= 0 means no
	// bound.
	TTLSecs float64
	// MaxTrees caps live distance fields; the oldest installed field is
	// evicted first (deterministic insertion order). A prefetch batch
	// builds into spare fields and evicts back down to the cap when it
	// installs them. 0 defaults to 1024.
	MaxTrees int
	// Shards assigns destinations to build shards for PrefetchRoutes; nil
	// falls back to round-robin by id. Spatial maps keep one shard's BFS
	// frontier in a coherent region of the grid.
	Shards *sim.ShardMap
}

// noPath marks a node with no path to the field's destination.
const noPath = math.MaxUint16

// distField is a per-destination hop-distance field: dist[v] is the number
// of hops from v to dst, or noPath, on the neighbor graph of version
// version. built is the build time, for the optional age bound.
type distField struct {
	dst     int
	dist    []uint16
	built   float64
	version uint64
}

// routeMemo answers next-hop queries — unbounded and TTL-scoped — from
// per-destination distance fields. The answer for (src, dst) is the lowest
// id in src's ascending neighbor list whose distance is dist[src]−1: the
// first hop the forward BFS from src returns, since that BFS queues nodes
// grouped by first hop in ascending id order and so always reaches dst
// first through the lowest-id first hop among all shortest paths. A field
// is valid while the neighbor version is unchanged (and within the
// optional age bound); a missing or stale one is rebuilt in full, serially
// on demand or in bulk in one sharded parallel phase by PrefetchRoutes.
// Every field a query reads equals a fresh build, so when fields are built
// never changes an answer: the memo is pure (DESIGN.md §15).
type routeMemo struct {
	o         *Oracle
	ttl       float64
	maxFields int
	sm        *sim.ShardMap

	// fields holds the current field of each destination (nil: none).
	// order lists their destinations, oldest install first (head is the
	// logical front); a replaced field's successor keeps its place. free
	// holds evicted and replaced fields for reuse. A field is only ever
	// built while it is on neither fields nor free, so no field a query
	// reads, and none that an install frees, shares a buffer with one
	// being built.
	fields []*distField
	order  []int32
	head   int
	free   []*distField

	// The transposed neighbor snapshot in CSR form: the live nodes whose
	// lists contain v are inAdj[inStart[v]:inStart[v+1]]. Built serially
	// once per neighbor version (inOK false: never built).
	inStart   []int32
	inAdj     []int32
	inVersion uint64
	inOK      bool

	// Prefetch scratch. pending holds the pre-assigned field of each item
	// of the current parallel phase; seen is a stamp array deduplicating
	// the dst list.
	pending   []*distField
	seen      []int32
	seenStamp int32

	// Per-shard BFS queues, indexed by the ShardMap's (unclamped) shard
	// id: items that could ever run concurrently live in different engine
	// buckets, and distinct shard ids never share a bucket's queue.
	queues [][]int32

	evalFn func(int)
}

// newRouteMemo builds the oracle's memo.
func newRouteMemo(o *Oracle, cfg RouteCacheConfig) *routeMemo {
	n := o.net.N()
	if cfg.MaxTrees <= 0 {
		cfg.MaxTrees = 1024
	}
	sm := cfg.Shards
	if sm == nil {
		sm = sim.NewShardMap(8, n, float64(n), func(id int) float64 { return float64(id) })
	}
	c := &routeMemo{
		o:         o,
		ttl:       cfg.TTLSecs,
		maxFields: cfg.MaxTrees,
		sm:        sm,
		fields:    make([]*distField, n),
		seen:      make([]int32, n),
		queues:    make([][]int32, sm.Shards()),
	}
	c.evalFn = c.eval
	return c
}

// EnableRouteCache reconfigures the oracle's route memo (NewOracle installs
// one with the zero config): its field cap, its optional age bound, and
// the shard map its prefetch builds on. Fields built so far are dropped.
func (o *Oracle) EnableRouteCache(cfg RouteCacheConfig) {
	o.cache = newRouteMemo(o, cfg)
}

// PrefetchRoutes implements RoutePrefetcher: ensure a valid field exists
// for every alive destination in dsts, building all missing or stale ones
// in one ShardedEval phase over the frozen neighbor snapshot.
func (o *Oracle) PrefetchRoutes(origin int, dsts []int) {
	o.cache.prefetch(dsts)
}

func (c *routeMemo) prefetch(dsts []int) {
	net := c.o.net
	net.PrepareNeighbors()
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	if c.seenStamp == math.MaxInt32 {
		for i := range c.seen {
			c.seen[i] = 0
		}
		c.seenStamp = 0
	}
	c.seenStamp++
	c.pending = c.pending[:0]
	for _, dst := range dsts {
		if c.seen[dst] == c.seenStamp {
			continue
		}
		c.seen[dst] = c.seenStamp
		if !net.Alive(dst) {
			continue
		}
		if f := c.fields[dst]; f != nil && c.valid(f, now, ver) {
			continue
		}
		c.pending = append(c.pending, c.claim(dst, now, ver))
	}
	if len(c.pending) == 0 {
		return
	}
	// Fields and the snapshot are assigned serially (the free list is
	// shared state); the parallel phase only fills distances. Installs run
	// after the barrier in ascending item order.
	c.transpose(ver)
	c.o.engine.ShardedEval(len(c.pending), c.shardOfItem, c.evalFn)
	for _, f := range c.pending {
		c.install(f)
	}
}

func (c *routeMemo) shardOfItem(i int) int { return c.sm.Shard(c.pending[i].dst) }

// eval fills item i's field on its shard's queue. Reads the frozen
// transposed snapshot and writes only the item's own field plus the
// shard's queue (items of one shard run sequentially on one worker).
func (c *routeMemo) eval(i int) {
	f := c.pending[i] //pqlint:parshared(per-item field slot, pre-assigned serially before the phase)
	c.build(f, c.sm.Shard(f.dst))
}

// claim returns a spare field for dst, stamped with the snapshot it will
// hold: a pooled one, or a new one. dst's current field, if any, stays
// readable until install replaces it.
func (c *routeMemo) claim(dst int, now float64, ver uint64) *distField {
	var f *distField
	if k := len(c.free); k > 0 {
		f = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		f = &distField{dist: make([]uint16, c.o.net.N())}
	}
	f.dst, f.built, f.version = dst, now, ver
	return f
}

// transpose rebuilds the in-edge snapshot from the frozen neighbor lists
// unless it already holds version ver. Counting sort: in-degrees land at
// inStart[v+2], prefix sums turn inStart[v+1] into v's write cursor, and
// the fill advances each cursor to the start of the next list.
func (c *routeMemo) transpose(ver uint64) {
	if c.inOK && c.inVersion == ver {
		return
	}
	net := c.o.net
	n := net.N()
	if len(c.inStart) != n+2 {
		c.inStart = make([]int32, n+2)
	}
	start := c.inStart
	for i := range start {
		start[i] = 0
	}
	for u := 0; u < n; u++ {
		if net.Alive(u) {
			for _, v := range net.FrozenNeighbors(u) {
				start[v+2]++
			}
		}
	}
	for v := 2; v < len(start); v++ {
		start[v] += start[v-1]
	}
	m := int(start[n+1])
	if cap(c.inAdj) < m {
		// Headroom: the edge count drifts with every neighbor version.
		c.inAdj = make([]int32, m, m+m/8)
	}
	c.inAdj = c.inAdj[:m]
	for u := 0; u < n; u++ {
		if net.Alive(u) {
			for _, v := range net.FrozenNeighbors(u) {
				c.inAdj[start[v+1]] = int32(u)
				start[v+1]++
			}
		}
	}
	c.inVersion, c.inOK = ver, true
}

// build fills f.dist by BFS from f.dst over the transposed snapshot: the
// in-neighbors of a node at distance d are at most d+1 hops from dst, and
// the first visit is the shortest. Dead nodes own no lists, so they get no
// distance (besides a destination, which callers keep alive). uint16
// labels cap paths at 65534 hops, which only a chain of more than 65535
// nodes could exceed; the simulator's geometric graphs are a few hundred
// hops across at 100k.
func (c *routeMemo) build(f *distField, shard int) {
	dist := f.dist
	for i := range dist {
		dist[i] = noPath
	}
	dist[f.dst] = 0
	queue := append(c.queues[shard][:0], int32(f.dst))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		if d == noPath {
			panic("aodv: route memo hop distance exceeds 65534")
		}
		for _, w := range c.inAdj[c.inStart[u]:c.inStart[u+1]] {
			if dist[w] == noPath {
				dist[w] = d
				queue = append(queue, w)
			}
		}
	}
	c.queues[shard] = queue //pqlint:parshared(per-shard BFS queue; shard ids never share an engine bucket)
}

// install makes a built field current for its destination. A field
// replacing a stale one takes its place in the eviction order; a new one
// goes last, evicting the oldest past the cap. Runs serially (after the
// phase or on the serial miss path).
func (c *routeMemo) install(f *distField) {
	if old := c.fields[f.dst]; old != nil {
		c.fields[f.dst] = f
		c.free = append(c.free, old)
		return
	}
	for len(c.order)-c.head >= c.maxFields {
		old := c.fields[c.order[c.head]]
		c.fields[old.dst] = nil
		c.free = append(c.free, old)
		c.head++
	}
	if c.head > len(c.order)/2 && c.head > 64 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	c.fields[f.dst] = f
	c.order = append(c.order, int32(f.dst))
}

func (c *routeMemo) valid(f *distField, now float64, ver uint64) bool {
	return f.version == ver && (c.ttl <= 0 || now-f.built <= c.ttl)
}

// nextHop answers a query from dst's field, building it serially when it
// is missing or stale. A dead destination, or a dead source, is
// unreachable.
func (c *routeMemo) nextHop(src, dst, maxTTL int) (int, bool) {
	net := c.o.net
	if !net.Alive(dst) || !net.Alive(src) {
		return 0, false
	}
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	f := c.fields[dst]
	if f == nil || !c.valid(f, now, ver) {
		// Same snapshot discipline as prefetch: prepare (which may advance
		// the version), then build over the frozen lists.
		net.PrepareNeighbors()
		ver = net.NeighborVersion()
		f = c.claim(dst, now, ver)
		c.transpose(ver)
		c.build(f, c.sm.Shard(dst))
		c.install(f)
	}
	return c.answer(f, src, maxTTL)
}

// answer reads the next hop off a field valid at the current version: dst
// is within maxTTL hops iff dist[src] ≤ maxTTL, and the hop is the first
// neighbor one step closer. src's frozen list is the one the field holds,
// since the version has not moved.
//
//pqlint:noalloc
func (c *routeMemo) answer(f *distField, src, maxTTL int) (int, bool) {
	d := int(f.dist[src])
	if d == noPath || (maxTTL > 0 && d > maxTTL) {
		return 0, false
	}
	for _, nb := range c.o.net.FrozenNeighbors(src) {
		if int(f.dist[nb]) == d-1 {
			return nb, true
		}
	}
	return 0, false
}
