package netstack

import (
	"math"
	"sort"

	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// NeighborProvider reports each node's current one-hop neighborhood.
type NeighborProvider interface {
	// Neighbors returns the ids a node can currently talk to directly,
	// sorted ascending. The returned slice is owned by the provider and
	// valid until the node's list is next rebuilt.
	Neighbors(id int) []int
	// Version is a counter that advances whenever some live node's
	// neighbor *set* can have changed — a new neighbor appears, an entry
	// expires, liveness flips, or (for position-derived providers on a
	// mobile network) time advances. It is exact in one direction: while
	// it reads what it read right after a Prepare, every live node's list
	// still equals its Frozen one, whether or not anyone has asked for it
	// since. Consumers that memoize derived state (the oracle router's
	// distance fields) key validity on it alone.
	Version() uint64
	// Prepare revalidates every live node's cached list at the current
	// instant, so that a subsequent parallel phase within the same event
	// can read them via Frozen without mutation.
	Prepare()
	// Frozen returns id's cached list with no revalidation. Only valid
	// after Prepare in the same event; read-only, safe for concurrent
	// readers (DESIGN.md §15).
	Frozen(id int) []int
}

// oracleNeighbors computes neighborhoods geometrically from true positions —
// the idealization of a perfectly fresh heartbeat protocol. Two cache
// layers keep it off the oracle router's critical path:
//
//   - positions live in a geom.Grid refreshed at most once per engine
//     timestamp (a position is a pure function of (id, time), so within
//     one timestamp the index is exact; a static network indexes once for
//     the whole run), making one query O(degree) instead of O(n);
//   - computed neighbor lists are memoized per (timestamp, aliveEpoch),
//     so each list is recomputed at most once per event, and on a static
//     network without churn exactly once per run.
type oracleNeighbors struct {
	net     *Network
	grid    *geom.Grid
	stamp   float64 // engine time of the last cache invalidation; -1 = never
	epoch   uint64  // net.aliveEpoch at the last cache invalidation
	static  bool    // positions never change: the grid fills exactly once
	lists   [][]int // memoized per-node neighbor lists
	valid   []bool
	cand    []int
	version uint64
}

func newOracleNeighbors(net *Network) *oracleNeighbors {
	return &oracleNeighbors{
		net:    net,
		grid:   geom.NewGrid(net.N(), net.cfg.Side, net.Range()),
		static: net.mob.MaxSpeed() == 0,
		stamp:  -1,
		lists:  make([][]int, net.N()),
		valid:  make([]bool, net.N()),
	}
}

// refresh invalidates the caches when time advanced or liveness changed,
// and (re)fills the position grid when the invalidation was for time.
func (o *oracleNeighbors) refresh() {
	now := o.net.engine.Now()
	if o.stamp >= 0 && o.epoch == o.net.aliveEpoch && (o.static || now <= o.stamp) {
		return
	}
	if o.stamp < 0 || !o.static {
		for id := 0; id < o.net.N(); id++ {
			o.grid.Update(id, o.net.Position(id))
		}
	}
	for i := range o.valid {
		o.valid[i] = false
	}
	o.stamp, o.epoch = now, o.net.aliveEpoch
	o.version++
}

func (o *oracleNeighbors) Neighbors(id int) []int {
	o.refresh()
	if o.valid[id] {
		return o.lists[id]
	}
	net := o.net
	p := net.Position(id)
	o.cand = o.grid.Within(p, net.Range(), o.cand[:0])
	list := o.lists[id][:0]
	for _, other := range o.cand {
		if other != id && net.alive[other] {
			list = append(list, other)
		}
	}
	// The pre-grid implementation scanned ids in ascending order, and BFS
	// tie-breaking — hence every oracle-routed run's exact outcome —
	// depends on neighbor order. Sort to stay bit-identical with recorded
	// results; grids return cell order otherwise.
	sort.Ints(list)
	o.lists[id] = list
	o.valid[id] = true
	return list
}

// Version implements NeighborProvider: the counter advances with every
// cache invalidation, i.e. whenever liveness flipped or (mobile network)
// time moved, which is exactly when a geometric neighbor set can change.
func (o *oracleNeighbors) Version() uint64 {
	o.refresh()
	return o.version
}

// Prepare implements NeighborProvider: revalidate every live node's list.
func (o *oracleNeighbors) Prepare() {
	o.refresh()
	for id := 0; id < o.net.N(); id++ {
		if o.net.alive[id] && !o.valid[id] {
			o.Neighbors(id)
		}
	}
}

// Frozen implements NeighborProvider.
func (o *oracleNeighbors) Frozen(id int) []int { return o.lists[id] }

// beaconBytes is the size of a heartbeat beacon payload.
const beaconBytes = 20

// heartbeatService implements the paper's neighbor discovery: every node
// broadcasts a beacon each cycle (10 s by default), with a random phase to
// desynchronize; a neighbor entry expires when no beacon has been heard for
// just over two cycles. Stale entries are exactly the mobility artifact the
// paper's salvation/repair techniques must cope with.
//
// Neighbor lists are cached per node and rebuilt only when the answer can
// actually change: a beacon that adds a previously absent (or expired)
// sender marks the node dirty, a liveness flip invalidates via aliveEpoch,
// and the passage of time invalidates at the earliest cached-entry expiry.
// Each of these also advances Version the moment it happens — dirty
// beacons directly, expiries through the due heap Version drains — so the
// counter is exact without anyone having to re-read the affected list.
// Within the validity window a cached list equals what a fresh scan would
// return — a refresh beacon from a current neighbor changes timestamps, not
// membership — so caching is observationally equivalent to the previous
// rebuild-per-call implementation (same lists, same sorted order, same
// expiry semantics) while turning a neighbor read from "rebuild and sort
// the node's map" into a slice read.
type heartbeatService struct {
	net      *Network
	interval float64
	timeout  float64
	lastSeen []map[int]float64 // id -> neighbor -> last beacon time
	// beacons holds one immutable beacon packet per node, built once and
	// rebroadcast every cycle: all fields are constant per sender and the
	// receive path reads only the previous-hop id, so reuse is safe.
	beacons []*Packet

	lists   [][]int   // cached sorted neighbor lists
	expires []float64 // earliest entry expiry of each cached list
	epochs  []uint64  // net.aliveEpoch each list was built under
	fresh   []bool    // false forces a rebuild (new/expired-sender beacon)
	scratch []int     // rebuild staging, for content-change detection
	version uint64    // advances on dirty beacons and list content changes
	// due holds (expiry, id) for every rebuild with a finite expiry,
	// earliest first; entries a later rebuild superseded are skipped when
	// they surface, or dropped when the heap is compacted.
	due []listExpiry
}

// listExpiry is one due-heap entry: id's cached list may lose an entry
// after at.
type listExpiry struct {
	at float64
	id int
}

func newHeartbeatService(net *Network, interval float64) *heartbeatService {
	h := &heartbeatService{
		net:      net,
		interval: interval,
		timeout:  2.2 * interval,
		lastSeen: make([]map[int]float64, net.N()),
		beacons:  make([]*Packet, net.N()),
		lists:    make([][]int, net.N()),
		expires:  make([]float64, net.N()),
		epochs:   make([]uint64, net.N()),
		fresh:    make([]bool, net.N()),
	}
	rng := net.engine.NewStream()
	for id := 0; id < net.N(); id++ {
		h.lastSeen[id] = make(map[int]float64)
		h.beacons[id] = &Packet{
			Proto: ProtoBeacon,
			Src:   id,
			Dst:   Broadcast,
			Bytes: beaconBytes,
		}
		node := net.Node(id)
		node.Register(ProtoBeacon, h)
		phase := rng.Float64() * interval
		sim.NewTicker(net.engine, phase, interval, func() { h.beacon(node) })
	}
	return h
}

func (h *heartbeatService) beacon(n *Node) {
	if !n.Alive() {
		return
	}
	n.BroadcastOneHop(h.beacons[n.ID()], nil)
}

// HandlePacket implements Handler: record the beacon sender. The cached
// list is invalidated only when membership can change — the sender was
// absent or already past the timeout; a refresh from a current neighbor
// leaves the cached list exact (its conservative expiry just rebuilds a
// hair early).
func (h *heartbeatService) HandlePacket(n *Node, pkt *Packet, from int) {
	id := n.ID()
	now := h.net.engine.Now()
	old, had := h.lastSeen[id][from]
	h.lastSeen[id][from] = now
	if !had || now-old > h.timeout {
		// The sender joins id's list: its content changes now.
		h.fresh[id] = false
		h.version++
	}
}

// Neighbors implements NeighborProvider. The result is sorted so that runs
// are deterministic despite map iteration order.
func (h *heartbeatService) Neighbors(id int) []int {
	now := h.net.engine.Now()
	if h.fresh[id] && h.epochs[id] == h.net.aliveEpoch && now <= h.expires[id] {
		return h.lists[id]
	}
	return h.rebuild(id, now)
}

// rebuild rescans id's beacon table: exactly the filter the uncached
// implementation applied per call, staged through scratch so a content
// change (vs. the previously cached list) can advance the graph version.
func (h *heartbeatService) rebuild(id int, now float64) []int {
	h.scratch = h.scratch[:0]
	expires := math.Inf(1)
	for nb, seen := range h.lastSeen[id] {
		if now-seen <= h.timeout && h.net.alive[nb] {
			h.scratch = append(h.scratch, nb)
			if e := seen + h.timeout; e < expires {
				expires = e
			}
		} else if now-seen > h.timeout {
			delete(h.lastSeen[id], nb)
		}
	}
	sort.Ints(h.scratch)
	if !intsEqual(h.scratch, h.lists[id]) {
		h.version++
	}
	h.lists[id] = append(h.lists[id][:0], h.scratch...)
	h.expires[id] = expires
	h.epochs[id] = h.net.aliveEpoch
	h.fresh[id] = true
	if !math.IsInf(expires, 1) {
		h.pushDue(listExpiry{at: expires, id: id})
	}
	return h.lists[id]
}

// Version implements NeighborProvider. A list changes through a dirty
// beacon (counted when it arrives), a liveness flip (the alive epoch), or
// an entry timing out. For the last, Version first rebuilds every live
// list whose cached expiry has passed — the rebuild counts a content
// change, and refreshes that kept every entry alive count nothing — so a
// list nobody has re-read since its neighbor went quiet still advances the
// counter. Both terms only grow, so the sum is monotone.
func (h *heartbeatService) Version() uint64 {
	now := h.net.engine.Now()
	for len(h.due) > 0 && h.due[0].at < now {
		id := h.popDue().id
		if h.net.alive[id] && now > h.expires[id] {
			h.rebuild(id, now)
		}
	}
	return h.version + h.net.aliveEpoch
}

// pushDue and popDue keep due a binary min-heap on (at, id). Only Version
// pops, so a run that never asks for it (AODV routing) would grow the heap
// by one entry per rebuild; past twice the node count pushDue compacts it
// to the entries that can still matter.
func (h *heartbeatService) pushDue(e listExpiry) {
	if len(h.due) > 2*len(h.lists)+64 {
		h.compactDue()
	}
	h.due = append(h.due, e)
	for i := len(h.due) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.due[i].before(h.due[p]) {
			break
		}
		h.due[i], h.due[p] = h.due[p], h.due[i]
		i = p
	}
}

func (h *heartbeatService) popDue() listExpiry {
	top := h.due[0]
	last := len(h.due) - 1
	h.due[0] = h.due[last]
	h.due = h.due[:last]
	h.siftDown(0)
	return top
}

func (h *heartbeatService) siftDown(i int) {
	for n := len(h.due); ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h.due[l].before(h.due[m]) {
			m = l
		}
		if r < n && h.due[r].before(h.due[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.due[i], h.due[m] = h.due[m], h.due[i]
		i = m
	}
}

// compactDue rebuilds the heap with one entry per current list. A list
// that is not current (a dirty beacon, or a liveness flip since its build)
// has already moved Version, and its next rebuild pushes a fresh entry.
func (h *heartbeatService) compactDue() {
	h.due = h.due[:0]
	for id, fresh := range h.fresh {
		if fresh && h.epochs[id] == h.net.aliveEpoch && !math.IsInf(h.expires[id], 1) {
			h.due = append(h.due, listExpiry{at: h.expires[id], id: id})
		}
	}
	for i := len(h.due)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (a listExpiry) before(b listExpiry) bool {
	//pqlint:allow floatequal(heap tie-break: equal expiry times order by id)
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}

// Prepare implements NeighborProvider.
func (h *heartbeatService) Prepare() {
	for id := 0; id < h.net.N(); id++ {
		if h.net.alive[id] {
			h.Neighbors(id)
		}
	}
}

// Frozen implements NeighborProvider.
func (h *heartbeatService) Frozen(id int) []int { return h.lists[id] }

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
