package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"probquorum/internal/aodv"
	"probquorum/internal/netstack"
)

// spanKind names one kind of call the benchmark makes into a layer.
type spanKind uint8

const (
	spSetupEngine spanKind = iota
	spSetupNetstack
	spSetupAODV
	spSetupMembership
	spSetupQuorum
	spSetupCheck
	spSetupOther
	spSimWarmup
	spSimAdvertise
	spSimLookup
	spQuorumAdvertise
	spQuorumLookup
	spQuorumReset
	spAODVPrefetch
	spAODVSend
	spMembershipRefresh
	spCheckFinal
	spHeapSample
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spSetupEngine:       "setup.engine",
	spSetupNetstack:     "setup.netstack",
	spSetupAODV:         "setup.aodv",
	spSetupMembership:   "setup.membership",
	spSetupQuorum:       "setup.quorum",
	spSetupCheck:        "setup.check",
	spSetupOther:        "setup.other",
	spSimWarmup:         "sim.warmup",
	spSimAdvertise:      "sim.advertise",
	spSimLookup:         "sim.lookup",
	spQuorumAdvertise:   "quorum.advertise",
	spQuorumLookup:      "quorum.lookup",
	spQuorumReset:       "quorum.reset",
	spAODVPrefetch:      "aodv.prefetch",
	spAODVSend:          "aodv.send",
	spMembershipRefresh: "membership.refresh",
	spCheckFinal:        "check.final",
	spHeapSample:        "bench.heap_sample",
}

// span is one recorded call: its kind, wall-clock interval in nanoseconds
// since the tracer's origin, the enclosing span (-1 at top level) and the
// benchmark-assigned id of the quorum operation it belongs to (0 = none).
type span struct {
	kind       spanKind
	parent     int32
	op         int64
	start, end int64
}

// tracer records spans around the benchmark's own calls into the layers.
// Spans live in memory until the run writes them out. Switched off, begin
// and end cost one branch, and wrapRouter hands the router through
// untouched, so an untraced run executes exactly the program's code.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int32
	nextOp int64

	// Router counters, kept by the decorators.
	prefetchCalls, prefetchDsts   uint64
	sendCalls, sendDone, sendFail uint64
	refreshCalls                  uint64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// newOp returns a fresh operation id for a quorum call (0 when off).
func (t *tracer) newOp() int64 {
	if !t.on {
		return 0
	}
	t.nextOp++
	return t.nextOp
}

// begin opens a span of kind k. A zero op inherits the parent's op id.
func (t *tracer) begin(k spanKind, op int64) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if op == 0 {
			op = t.spans[parent].op
		}
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, op: op, start: int64(time.Since(t.origin))})
	idx := int32(len(t.spans) - 1)
	t.open = append(t.open, idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	t.spans[idx].end = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// spanTotals is the per-kind fold of a span list, in seconds; self is a
// span's duration minus the time its direct child spans cover.
type spanTotals struct {
	total, self [numSpanKinds]float64
}

func (t *tracer) totals() spanTotals {
	var out spanTotals
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		out.total[s.kind] += float64(d) / 1e9
		out.self[s.kind] += float64(d-child[i]) / 1e9
	}
	return out
}

// writeSpans writes one JSON object per span (name, start/end in ns since
// the run's origin, parent index, op id) to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"i":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n",
			i, spanNames[s.kind], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapRouter returns the router quorum.New should see: the router itself
// when tracing is off, otherwise a decorator that times Send/SendScoped
// and, when the route cache is on, PrefetchRoutes. The prefetching
// decorator is only used with the cache because quorum.New probes for
// aodv.RoutePrefetcher, and without the cache the oracle's prefetch is a
// no-op that would otherwise be counted.
func (t *tracer) wrapRouter(r aodv.Router, routeCache bool) aodv.Router {
	if !t.on {
		return r
	}
	tr := &tracedRouter{inner: r, t: t}
	if pf, ok := r.(aodv.RoutePrefetcher); ok && routeCache {
		return &tracedPrefetchRouter{tracedRouter: tr, pf: pf}
	}
	return tr
}

// tracedRouter times the quorum layer's origin sends into routing.
type tracedRouter struct {
	inner aodv.Router
	t     *tracer
}

var _ aodv.Router = (*tracedRouter)(nil)

func (r *tracedRouter) done(done func(bool)) func(bool) {
	return func(ok bool) {
		r.t.sendDone++
		if !ok {
			r.t.sendFail++
		}
		if done != nil {
			done(ok)
		}
	}
}

func (r *tracedRouter) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	s := r.t.begin(spAODVSend, 0)
	r.t.sendCalls++
	r.inner.Send(src, dst, inner, r.done(done))
	r.t.end(s)
}

func (r *tracedRouter) SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	s := r.t.begin(spAODVSend, 0)
	r.t.sendCalls++
	r.inner.SendScoped(src, dst, inner, maxTTL, r.done(done))
	r.t.end(s)
}

func (r *tracedRouter) AddTransitTap(id int, tap aodv.TransitTap) { r.inner.AddTransitTap(id, tap) }

func (r *tracedRouter) HasRoute(src, dst int) bool { return r.inner.HasRoute(src, dst) }

// tracedPrefetchRouter additionally keeps the RoutePrefetcher hook, so the
// quorum layer's bulk prefetch still reaches the route cache.
type tracedPrefetchRouter struct {
	*tracedRouter
	pf aodv.RoutePrefetcher
}

var _ aodv.RoutePrefetcher = (*tracedPrefetchRouter)(nil)

func (r *tracedPrefetchRouter) PrefetchRoutes(origin int, dsts []int) {
	s := r.t.begin(spAODVPrefetch, 0)
	r.t.prefetchCalls++
	r.t.prefetchDsts += uint64(len(dsts))
	r.pf.PrefetchRoutes(origin, dsts)
	r.t.end(s)
}
