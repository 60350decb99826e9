package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees: host cost and
// the simulated fidelity the paper plots.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb", "MB"},
	{"hit_ratio", "ratio"},
	{"intersect_ratio", "ratio"},
	{"placed_ratio", "ratio"},
	{"msgs_per_advertise", "msgs"},
	{"msgs_per_lookup", "msgs"},
	{"lookup_p50_ms", "sim_ms"},
	{"lookup_p90_ms", "sim_ms"},
	{"op_fail_ratio", "ratio"},
}

// perLayerMetrics come from the traced run.
var perLayerMetrics = []metricDef{
	{"sim.events", "count"},
	{"sim.warmup_s", "s"},
	{"sim.advertise_s", "s"},
	{"sim.lookup_s", "s"},
	{"sim.unattributed_s", "s"},
	{"setup.netstack_s", "s"},
	{"setup.aodv_s", "s"},
	{"setup.membership_s", "s"},
	{"setup.quorum_s", "s"},
	{"setup.check_s", "s"},
	{"aodv.prefetch_calls", "count"},
	{"aodv.prefetch_dsts", "count"},
	{"aodv.prefetch_s", "s"},
	{"aodv.send_calls", "count"},
	{"aodv.send_s", "s"},
	{"aodv.send_fail_ratio", "ratio"},
	{"aodv.data_drops", "count"},
	{"quorum.advertise_self_s", "s"},
	{"quorum.lookup_self_s", "s"},
	{"quorum.placed_mean", "count"},
	{"quorum.adaptations", "count"},
	{"quorum.advertise_timeouts", "count"},
	{"quorum.lookup_retries", "count"},
	{"quorum.salvations", "count"},
	{"quorum.walk_drops", "count"},
	{"quorum.reply_drops", "count"},
	{"quorum.cache_hits", "count"},
	{"membership.refresh_calls", "count"},
	{"membership.refresh_s", "s"},
	{"membership.dead_refresh_skips", "count"},
	{"netstack.app_msgs", "count"},
	{"netstack.routing_msgs", "count"},
	{"netstack.beacon_msgs", "count"},
	{"netstack.delivery_ratio", "ratio"},
	{"netstack.fault_drops", "count"},
	{"netstack.partition_drops", "count"},
	{"netstack.hop_latency_ms", "sim_ms"},
	{"check.final_s", "s"},
	{"check.violations", "count"},
	{"churn.fails", "count"},
	{"churn.joins", "count"},
	{"workload.issued", "count"},
	{"workload.completed", "count"},
	{"workload.queued", "count"},
	{"workload.shed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"lookup.samples", "count"},
	{"lookup.local_hits", "count"},
	{"trace.spans", "count"},
	// sim.run_s only feeds trace.overhead_s and is not reported.
	{"sim.run_s", "s"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the q-quantile of v and whether at least ten samples
// lie beyond its nearest rank (otherwise it is omitted). The quantile is
// Parzen's mid-quantile: equal samples form one group placed at the middle
// of its cumulative share, and the quantile interpolates linearly between
// groups. On distinct samples that is the ordinary interpolated quantile;
// on quantized ones (the ideal stack's latencies are whole multiples of a
// hop time) it moves smoothly as the shares shift instead of jumping a
// whole hop when the share below a value crosses q.
func percentile(v []float64, q float64) (float64, bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if rank := int(math.Ceil(q * float64(n))); rank < 1 || n-rank < 10 {
		return 0, false
	}
	var prevX, prevF float64
	for i := 0; i < n; {
		j := i
		for j < n && s[j] == s[i] {
			j++
		}
		mid := (float64(i) + float64(j-i)/2) / float64(n)
		if q <= mid {
			if i == 0 {
				return s[0], true
			}
			return prevX + (s[i]-prevX)*(q-prevF)/(mid-prevF), true
		}
		prevX, prevF = s[i], mid
		i = j
	}
	return prevX, true
}

// speed scales a host time measured in this repetition to the reference
// host's speed.
func (c hostCost) speed() float64 { return referenceNominal / c.Reference }

// endToEnd computes the end-to-end metrics: fidelity pooled over the
// distinct-seed outcomes, host costs as medians over every repetition,
// with host times scaled to the reference host's speed.
func endToEnd(pooled []outcome, costs []hostCost) map[string]metricValue {
	var ads, placed, requested, lookups, hits, intersects, lkOps int
	var adMsgs, lkMsgs, attempted, failed int64
	var lat []float64
	for _, o := range pooled {
		ads += o.Ads
		placed += o.Placed
		requested += o.Requested
		lookups += o.Lookups
		hits += o.Hits
		intersects += o.Intersects
		lkOps += o.LkOps
		adMsgs += o.AdMsgs
		lkMsgs += o.LkMsgs
		attempted += o.Attempted
		failed += o.Failed
		lat = append(lat, o.HitLatency...)
	}
	col := func(f func(c hostCost) float64) float64 {
		v := make([]float64, len(costs))
		for i, c := range costs {
			v[i] = f(c)
		}
		return median(v)
	}
	vals := map[string]float64{
		"setup_s":            col(func(c hostCost) float64 { return c.Setup * c.speed() }),
		"run_s":              col(func(c hostCost) float64 { return c.Run * c.speed() }),
		"events_per_s":       col(func(c hostCost) float64 { return float64(c.Events) / (c.Run * c.speed()) }),
		"peak_heap_mb":       col(func(c hostCost) float64 { return float64(c.PeakHeap) / 1e6 }),
		"alloc_mb":           col(func(c hostCost) float64 { return float64(c.Alloc) / 1e6 }),
		"hit_ratio":          ratio(float64(hits), float64(lookups)),
		"intersect_ratio":    ratio(float64(intersects), float64(lookups)),
		"placed_ratio":       ratio(float64(placed), float64(requested)),
		"msgs_per_advertise": ratio(float64(adMsgs), float64(ads)),
		"msgs_per_lookup":    ratio(float64(lkMsgs), float64(lkOps)),
		"op_fail_ratio":      ratio(float64(failed), float64(attempted)),
	}
	if p, ok := percentile(lat, 0.5); ok {
		vals["lookup_p50_ms"] = p * 1e3
	}
	if p, ok := percentile(lat, 0.9); ok {
		vals["lookup_p90_ms"] = p * 1e3
	}
	out := map[string]metricValue{}
	for _, m := range endToEndMetrics {
		if v, ok := vals[m.name]; ok {
			out[m.name] = metricValue{v, m.unit}
		}
	}
	return out
}

// perLayer computes the per-layer metrics of one traced repetition.
func perLayer(o outcome, c hostCost, tr *tracer) map[string]metricValue {
	t := tr.totals()
	unattributed := t.self[spSimWarmup] + t.self[spSimAdvertise] + t.self[spSimLookup]
	vals := map[string]float64{
		"sim.events":                    float64(c.Events),
		"sim.warmup_s":                  c.Phase[phaseWarmup],
		"sim.advertise_s":               c.Phase[phaseAdvertise],
		"sim.lookup_s":                  c.Phase[phaseLookup],
		"sim.unattributed_s":            unattributed,
		"sim.run_s":                     c.Run,
		"setup.netstack_s":              t.total[spSetupNetstack],
		"setup.aodv_s":                  t.total[spSetupAODV],
		"setup.membership_s":            t.total[spSetupMembership],
		"setup.quorum_s":                t.total[spSetupQuorum],
		"setup.check_s":                 t.total[spSetupCheck],
		"aodv.prefetch_calls":           float64(tr.prefetchCalls),
		"aodv.prefetch_dsts":            float64(tr.prefetchDsts),
		"aodv.prefetch_s":               t.total[spAODVPrefetch],
		"aodv.send_calls":               float64(tr.sendCalls),
		"aodv.send_s":                   t.total[spAODVSend],
		"aodv.send_fail_ratio":          ratio(float64(tr.sendFail), float64(tr.sendDone)),
		"aodv.data_drops":               float64(o.DataDrops),
		"quorum.advertise_self_s":       t.self[spQuorumAdvertise],
		"quorum.lookup_self_s":          t.self[spQuorumLookup],
		"quorum.placed_mean":            ratio(float64(o.Placed), float64(o.AdResults)),
		"quorum.adaptations":            float64(o.Counters.Adaptations),
		"quorum.advertise_timeouts":     float64(o.Counters.AdvertiseTimeouts),
		"quorum.lookup_retries":         float64(o.Counters.LookupRetries),
		"quorum.salvations":             float64(o.Counters.Salvations),
		"quorum.walk_drops":             float64(o.Counters.WalkDrops),
		"quorum.reply_drops":            float64(o.Counters.ReplyDrops),
		"quorum.cache_hits":             float64(o.Counters.CacheHits),
		"membership.refresh_calls":      float64(tr.refreshCalls),
		"membership.refresh_s":          t.total[spMembershipRefresh],
		"membership.dead_refresh_skips": float64(o.DeadRefreshSkips),
		"netstack.app_msgs":             float64(o.Net[netApp]),
		"netstack.routing_msgs":         float64(o.Net[netRouting]),
		"netstack.beacon_msgs":          float64(o.Net[netBeacon]),
		"netstack.delivery_ratio":       ratio(float64(o.Net[netRxDelivered]), float64(o.Net[netRxArrivals])),
		"netstack.fault_drops":          float64(o.Net[netFaultDrops]),
		"netstack.partition_drops":      float64(o.Net[netPartitionDrops]),
		"netstack.hop_latency_ms":       o.HopLatency * 1e3,
		"check.final_s":                 c.CheckFinal,
		"check.violations":              float64(o.Report.Violations),
		"churn.fails":                   float64(o.ChurnFails),
		"churn.joins":                   float64(o.ChurnJoins),
		"workload.issued":               float64(o.WL.Issued),
		"workload.completed":            float64(o.WL.Completed),
		"workload.queued":               float64(o.WL.Queued),
		"workload.shed":                 float64(o.WL.Shed),
		"runtime.gc_cycles":             float64(c.GCCycles),
		"runtime.gc_pause_s":            c.GCPause,
		"lookup.samples":                float64(len(o.HitLatency)),
		"lookup.local_hits":             float64(o.LocalHits),
		"trace.spans":                   float64(len(tr.spans)),
	}
	out := make(map[string]metricValue, len(vals))
	for _, m := range perLayerMetrics {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}
