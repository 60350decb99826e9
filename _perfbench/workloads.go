package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/faults"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
	"probquorum/internal/workload"
)

// outcome is everything one repetition's simulation produced. It is a pure
// function of the workload and the simulation seed — host timing lives in
// hostCost — so two repetitions with the same seed must agree on every
// field, and the digest over it is the determinism check.
type outcome struct {
	Events uint64
	// Horizon is the simulated time at the end of the run.
	Horizon float64
	// Attempted counts operations the workload tried (advertises, lookups,
	// and arrivals the load generator shed); Failed those that did not
	// succeed: lookups without a hit, advertises force-settled by their
	// timeout, and shed arrivals.
	Attempted, Failed int64
	// Ads counts the advertises of the advertise phase (on the load
	// workload, the seeding phase) and AdMsgs their app plus routing
	// messages. Placed and Requested sum the AdvertiseResult fields of all
	// AdResults advertises, load-phase writes included.
	Ads, Placed, Requested, AdResults int
	AdMsgs                            int64
	// Lookups is the hit-ratio denominator; LkOps the message-cost one
	// (lookups, or every op of an open-loop load phase); LkMsgs sums app
	// plus routing messages over that phase.
	Lookups, Hits, Intersects int
	HitLatencySum             float64
	LkOps                     int
	LkMsgs                    int64
	// HitLatency holds the simulated issue-to-result time, in seconds, of
	// each lookup that hit through the network; LocalHits counts lookups
	// the origin answered from its own store, at zero latency.
	HitLatency []float64
	LocalHits  int

	// Layer state at the end of the run.
	Counters         quorum.Counters
	Report           check.Report
	Net              [netCounters]int64
	HopLatency       float64
	DataDrops        uint64
	DeadRefreshSkips uint64
	ChurnFails       int
	ChurnJoins       int
	WL               workload.Stats
	// Load-phase extras, matching the harness's load figure.
	IssueSkew, ServeSkew float64
	OpP50, OpP99         float64
	// Split message counts the harness's Result reports.
	AdAppMsgs, AdRoutingMsgs, LkAppMsgs, LkRoutingMsgs int64
}

// netCounters are the netstack counters the benchmark reads.
const (
	netApp = iota
	netRouting
	netBeacon
	netRxArrivals
	netRxDelivered
	netFaultDrops
	netPartitionDrops
	netLossDrops
	netCounters
)

var netCounterIDs = [netCounters]netstack.Counter{
	netApp:            netstack.CtrAppMsgs,
	netRouting:        netstack.CtrRoutingMsgs,
	netBeacon:         netstack.CtrBeaconMsgs,
	netRxArrivals:     netstack.CtrRxArrivals,
	netRxDelivered:    netstack.CtrRxDelivered,
	netFaultDrops:     netstack.CtrFaultDrops,
	netPartitionDrops: netstack.CtrPartitionDrops,
	netLossDrops:      netstack.CtrLossDrops,
}

// hostCost is what one repetition cost the host.
type hostCost struct {
	// Setup is the constructors' wall time before simulated time starts;
	// Run the wall time inside engine.Run over all phases.
	Setup, Run float64
	// Phase holds engine.Run wall time per phase (warmup, advertise,
	// lookup).
	Phase [3]float64
	// Events is the engine's processed-event delta.
	Events uint64
	// PeakHeap is the maximum live heap sampled every five simulated
	// seconds and at the end; Alloc the bytes allocated over setup plus
	// run.
	PeakHeap, Alloc uint64
	GCCycles        uint32
	GCPause         float64
	// Reference is the reference kernel's wall time before the
	// repetition (see referenceTime).
	Reference float64
	// CheckFinal is the wall time of the invariant suite's final pass.
	CheckFinal float64
}

// rep is one repetition in progress: the tracer, the host-cost
// accumulators, and helpers that wrap each benchmark call into a layer.
type rep struct {
	tr     *tracer
	cost   hostCost
	t0     time.Time
	setup  bool
	sample []metrics.Sample
}

func newRep(tr *tracer) *rep {
	return &rep{tr: tr, t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// run advances the engine to until, timing it as phase p. The first call
// closes the setup interval.
func (r *rep) run(st *stack, p int, until float64) {
	if !r.setup {
		r.setup = true
		r.cost.Setup = time.Since(r.t0).Seconds()
	}
	// The sim span kinds are declared in phase order.
	s := r.tr.begin(spSimWarmup+spanKind(p), 0)
	start := time.Now()
	st.engine.Run(until)
	d := time.Since(start).Seconds()
	r.tr.end(s)
	r.cost.Run += d
	r.cost.Phase[p] += d
}

const (
	phaseWarmup = iota
	phaseAdvertise
	phaseLookup
)

// sampleHeap records the live heap as of the last GC.
func (r *rep) sampleHeap() {
	s := r.tr.begin(spHeapSample, 0)
	metrics.Read(r.sample)
	if v := r.sample[0].Value.Uint64(); v > r.cost.PeakHeap {
		r.cost.PeakHeap = v
	}
	r.tr.end(s)
}

// armHeapSampler samples the heap every five simulated seconds.
func (r *rep) armHeapSampler(st *stack) *sim.Ticker {
	return sim.NewTicker(st.engine, 0, 5, r.sampleHeap)
}

func (r *rep) advertise(suite *check.Suite, origin int, key, value string, done func(quorum.AdvertiseResult)) {
	s := r.tr.begin(spQuorumAdvertise, r.tr.newOp())
	suite.Advertise(origin, key, value, done)
	r.tr.end(s)
}

func (r *rep) lookup(suite *check.Suite, origin int, key string, done func(quorum.LookupResult)) {
	s := r.tr.begin(spQuorumLookup, r.tr.newOp())
	suite.Lookup(origin, key, done)
	r.tr.end(s)
}

func (r *rep) newSuite(st *stack) *check.Suite {
	s := r.tr.begin(spSetupCheck, 0)
	suite := check.NewSuite(st.net, st.sys)
	r.tr.end(s)
	return suite
}

// final runs the invariant suite's final pass and reads the end-of-run
// layer state into o.
func (r *rep) final(st *stack, suite *check.Suite, o *outcome, startEvents uint64) {
	s := r.tr.begin(spCheckFinal, 0)
	start := time.Now()
	o.Report = suite.Final()
	r.cost.CheckFinal = time.Since(start).Seconds()
	r.tr.end(s)
	o.Counters = st.sys.Counters()
	stats := st.net.Stats()
	for i, c := range netCounterIDs {
		o.Net[i] = stats.Get(c)
	}
	o.HopLatency = stats.Latency(netstack.LatHop).Mean()
	o.DataDrops = st.dataDrops()
	o.DeadRefreshSkips = st.members.DeadRefreshSkips()
	o.Events = st.engine.Processed() - startEvents
	o.Horizon = st.engine.Now()
	r.cost.Events = o.Events
	r.sampleHeap()
}

// notePlaced adds one advertise's placement to the totals.
func (o *outcome) notePlaced(res quorum.AdvertiseResult) {
	o.Placed += res.Placed
	o.Requested += res.Requested
	o.AdResults++
}

// noteHit records a hit's latency, or a local answer when it is zero.
func (o *outcome) noteHit(latency float64) {
	if latency > 0 {
		o.HitLatency = append(o.HitLatency, latency)
	} else {
		o.LocalHits++
	}
}

// appRouting sums app and routing messages in a stats diff.
func appRouting(d netstack.Snapshot) (app, routing int64) {
	return d.Get(netstack.CtrAppMsgs), d.Get(netstack.CtrRoutingMsgs)
}

// paperParams sizes the paper-sinr workload: the experiment harness's
// two-phase run (Section 8) on the paper's Fig. 2 stack.
type paperParams struct {
	N, Ads, Lookups, LookupNodes int
	AdGap, LookupGap, Warmup     float64
}

// paperSINR runs one advertise per seed. Its AODV floods are most of the
// cost, and the failure share varies mostly with the random topology, so a
// run pools many small topologies rather than a few large ones.
var paperSINR = paperParams{N: 300, Ads: 1, Lookups: 300, LookupNodes: 150, AdGap: 1, LookupGap: 0.35, Warmup: 60}

func (p paperParams) spec() stackSpec {
	return stackSpec{
		N: p.N, AvgDegree: 10, Stack: netstack.StackSINR,
		Quorum: quorum.DefaultConfig(p.N),
	}
}

// drivePaper mirrors the experiment harness's Run for a static network
// without churn: warmup, advertisements from random nodes, then lookups
// from LookupNodes random origins.
func drivePaper(p paperParams, r *rep, seed int64) outcome {
	st := buildStack(p.spec(), seed, r.tr)
	defer st.engine.StopWorkers()
	suite := r.newSuite(st)
	s := r.tr.begin(spSetupOther, 0)
	rng := st.engine.NewStream()
	heap := r.armHeapSampler(st)
	r.tr.end(s)
	defer heap.Stop()
	startEvents := st.engine.Processed()
	var o outcome

	r.run(st, phaseWarmup, p.Warmup)

	keys := make([]string, p.Ads)
	adStart := st.net.Stats().Snapshot()
	for i := 0; i < p.Ads; i++ {
		keys[i] = fmt.Sprintf("item-%d", i)
		origin := st.net.RandomAliveID(rng)
		key, value := keys[i], fmt.Sprintf("loc-of-%d", i)
		st.engine.Schedule(float64(i)*p.AdGap, func() {
			r.advertise(suite, origin, key, value, o.notePlaced)
		})
	}
	o.Ads = p.Ads
	r.run(st, phaseAdvertise, st.engine.Now()+float64(p.Ads)*p.AdGap+30)
	o.AdAppMsgs, o.AdRoutingMsgs = appRouting(st.net.Stats().DiffSince(adStart))

	lkStart := st.net.Stats().Snapshot()
	origins := make([]int, p.LookupNodes)
	for i := range origins {
		origins[i] = st.net.RandomAliveID(rng)
	}
	for i := 0; i < p.Lookups; i++ {
		origin := origins[i%len(origins)]
		key := keys[rng.Intn(len(keys))]
		st.engine.Schedule(float64(i)*p.LookupGap, func() {
			if !st.net.Alive(origin) {
				return
			}
			issued := st.engine.Now()
			r.lookup(suite, origin, key, func(res quorum.LookupResult) {
				if res.Hit {
					o.Hits++
					o.HitLatencySum += res.Latency
					o.noteHit(st.engine.Now() - issued)
				}
				if res.Intersected {
					o.Intersects++
				}
			})
		})
	}
	o.Lookups, o.LkOps = p.Lookups, p.Lookups
	qc := st.sys.Config()
	drain := qc.LookupTimeout + 30
	for a := 1; a <= qc.LookupRetries; a++ {
		drain += qc.RetryBackoffSecs*float64(int(1)<<(a-1)) + qc.LookupTimeout
	}
	r.run(st, phaseLookup, st.engine.Now()+float64(p.Lookups)*p.LookupGap+drain)
	o.LkAppMsgs, o.LkRoutingMsgs = appRouting(st.net.Stats().DiffSince(lkStart))

	r.final(st, suite, &o, startEvents)
	o.finishClosedLoop()
	return o
}

// finishClosedLoop derives the totals of a two-phase run.
func (o *outcome) finishClosedLoop() {
	o.AdMsgs = o.AdAppMsgs + o.AdRoutingMsgs
	o.LkMsgs = o.LkAppMsgs + o.LkRoutingMsgs
	o.Attempted = int64(o.Ads + o.Lookups)
	o.Failed = int64(o.Lookups-o.Hits) + int64(o.Counters.AdvertiseTimeouts)
}

// scaleParams sizes a run of the harness's scale scenario (RunMega) in its
// giga posture: SINR with cell noise, geometric neighbors, oracle routing
// over the route-tree cache with sharded prefetch, lazy membership,
// RANDOM×RANDOM, continuous churn over the lookup phase plus a randomized
// fault schedule, invariants armed.
type scaleParams struct {
	N                           int
	Shards                      int
	Ads, Lookups, LookupNodes   int
	Warmup, ChurnRate, Severity float64
}

// scale1k is the giga tier's posture on a network small enough to pool
// many seeds in one run; |Qa| = 2√1000 = 63 still exceeds the MAC's
// 50-frame interface queue. Its Shards is set to the host's core count.
var scale1k = scaleParams{N: 1000, Ads: 10, Lookups: 50, LookupNodes: 50, Warmup: 5, ChurnRate: 0.2, Severity: 0.1}

func (p scaleParams) lookupSpan() float64 { return float64(p.Lookups) * 0.5 }

func (p scaleParams) spec() stackSpec {
	q := randomMix(p.N)
	return stackSpec{
		N: p.N, Joiners: int(math.Ceil(p.ChurnRate*p.lookupSpan())) + 2,
		AvgDegree: 10, Stack: netstack.StackSINR, CellNoise: true,
		OracleNeighbors: true, OracleRouting: true, RouteCache: true,
		Shards: p.Shards, LazyMembership: true, RefreshSecs: 20,
		Quorum: q,
	}
}

// randomMix is the RANDOM×RANDOM configuration the harness's scale and
// load scenarios use: paper sizes (|Qa| = 2√n, |Qℓ| = 1.15√n), walk TTLs
// of 3, the paper's techniques on, and a 15 s lookup timeout.
func randomMix(n int) quorum.Config {
	return quorum.Config{
		AdvertiseStrategy: quorum.Random, LookupStrategy: quorum.Random,
		AdvertiseSize: quorum.AdvertiseSizeDefault(n),
		LookupSize:    quorum.LookupSizeFor(n, 0.9),
		AdvertiseTTL:  3, LookupTTL: 3,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 15,
	}
}

// driveScale mirrors the harness's RunMega.
func driveScale(p scaleParams, r *rep, seed int64) outcome {
	sp := p.spec()
	st := buildStack(sp, seed, r.tr)
	defer st.engine.StopWorkers()
	startEvents := st.engine.Processed()
	s := r.tr.begin(spSetupOther, 0)
	inj := faults.New(st.net)
	r.tr.end(s)
	suite := r.newSuite(st)
	suite.SetPartitionOracle(inj.Partitioned)
	s = r.tr.begin(spSetupOther, 0)
	rng := st.engine.NewStream()
	scheduleRng := st.engine.NewStream()
	heap := r.armHeapSampler(st)
	r.tr.end(s)
	defer heap.Stop()
	var o outcome

	r.run(st, phaseWarmup, p.Warmup)

	keys := make([]string, p.Ads)
	adStart := st.net.Stats().Snapshot()
	for i := range keys {
		keys[i] = fmt.Sprintf("mega-key-%d", i)
		i := i
		st.engine.Schedule(float64(i)*1.0, func() {
			r.advertise(suite, st.net.RandomAliveID(rng), keys[i], "v", o.notePlaced)
		})
	}
	o.Ads = p.Ads
	r.run(st, phaseAdvertise, st.engine.Now()+float64(p.Ads)*1.0+20)
	o.AdAppMsgs, o.AdRoutingMsgs = appRouting(st.net.Stats().DiffSince(adStart))

	lkStart := st.net.Stats().Snapshot()
	span := p.lookupSpan()
	s = r.tr.begin(spSetupOther, 0)
	proc := churn.New(st.net, churn.Config{FailRate: p.ChurnRate, JoinRate: p.ChurnRate})
	r.tr.end(s)
	fresh := make([]int, 0, sp.Joiners)
	for id := sp.N; id < sp.N+sp.Joiners; id++ {
		fresh = append(fresh, id)
	}
	proc.SetFreshPool(fresh)
	proc.OnJoin(func(id int) {
		s := r.tr.begin(spQuorumReset, 0)
		st.sys.ResetNode(id)
		r.tr.end(s)
		s = r.tr.begin(spMembershipRefresh, 0)
		r.tr.refreshCalls++
		st.members.RefreshNode(id)
		r.tr.end(s)
	})
	inj.Schedule(faults.RandomSchedule(scheduleRng, faults.ScheduleConfig{
		HorizonSecs: span, Episodes: 2, Severity: p.Severity, N: p.N,
	}))
	proc.Start()
	st.engine.Schedule(span, proc.Stop)

	origins := make([]int, p.LookupNodes)
	for i := range origins {
		origins[i] = st.net.RandomAliveID(rng)
	}
	for i := 0; i < p.Lookups; i++ {
		origin := origins[i%len(origins)]
		key := keys[rng.Intn(len(keys))]
		st.engine.Schedule(float64(i)*0.5, func() {
			if !st.net.Alive(origin) {
				return
			}
			o.Lookups++
			o.LkOps++
			issued := st.engine.Now()
			r.lookup(suite, origin, key, func(res quorum.LookupResult) {
				if res.Hit {
					o.Hits++
					o.HitLatencySum += res.Latency
					o.noteHit(st.engine.Now() - issued)
				}
				if res.Intersected {
					o.Intersects++
				}
			})
		})
	}
	r.run(st, phaseLookup, st.engine.Now()+span+sp.Quorum.LookupTimeout+30)
	o.LkAppMsgs, o.LkRoutingMsgs = appRouting(st.net.Stats().DiffSince(lkStart))

	r.final(st, suite, &o, startEvents)
	cs := proc.Stats()
	o.ChurnFails, o.ChurnJoins = cs.Fails, cs.Joins
	o.finishClosedLoop()
	return o
}

// loadParams sizes the load-ideal workload: the harness's open-loop load
// figure, RANDOM×RANDOM row (Poisson arrivals, Zipf keys) on ideal links
// with oracle routing and no route cache.
type loadParams struct {
	N              int
	Rate, Duration float64
	Keys           int
	WriteFraction  float64
	MaxInFlight    int
	Warmup         float64
}

// loadIdeal keeps each seed's load phase short so a run pools 45
// topologies.
var loadIdeal = loadParams{N: 300, Rate: 0.5, Duration: 5, Keys: 64, WriteFraction: 0.1, MaxInFlight: 8, Warmup: 30}

func (p loadParams) spec() stackSpec {
	return stackSpec{
		N: p.N, AvgDegree: 10, Stack: netstack.StackIdeal,
		OracleRouting: true, Quorum: randomMix(p.N),
	}
}

// driveLoad mirrors the harness's load-figure mix run: warmup, a seeding
// phase that advertises every key, then the open-loop load phase.
func driveLoad(p loadParams, r *rep, seed int64) outcome {
	st := buildStack(p.spec(), seed, r.tr)
	defer st.engine.StopWorkers()
	s := r.tr.begin(spSetupOther, 0)
	rng := st.engine.NewStream()
	r.tr.end(s)
	suite := r.newSuite(st)
	s = r.tr.begin(spSetupOther, 0)
	heap := r.armHeapSampler(st)
	r.tr.end(s)
	defer heap.Stop()
	startEvents := st.engine.Processed()
	var o outcome

	r.run(st, phaseWarmup, p.Warmup)

	adStart := st.net.Stats().Snapshot()
	for i := 0; i < p.Keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		origin := st.net.RandomAliveID(rng)
		st.engine.Schedule(float64(i)*0.25, func() {
			r.advertise(suite, origin, key, "v", o.notePlaced)
		})
	}
	o.Ads = p.Keys
	r.run(st, phaseAdvertise, st.engine.Now()+float64(p.Keys)*0.25+30)
	o.AdAppMsgs, o.AdRoutingMsgs = appRouting(st.net.Stats().DiffSince(adStart))

	stats := st.net.Stats()
	loadStart := stats.Snapshot()
	issue := func(op workload.Op, done func(hit bool)) {
		start := st.engine.Now()
		if op.Write {
			r.advertise(suite, op.Node, op.Key, "v", func(res quorum.AdvertiseResult) {
				stats.Observe(netstack.LatOp, st.engine.Now()-start)
				o.notePlaced(res)
				done(false)
			})
			return
		}
		r.lookup(suite, op.Node, op.Key, func(res quorum.LookupResult) {
			stats.Observe(netstack.LatOp, st.engine.Now()-start)
			if res.Hit {
				o.noteHit(st.engine.Now() - start)
			}
			if res.Intersected {
				o.Intersects++
			}
			done(res.Hit)
		})
	}
	nodes := make([]int, p.N)
	for i := range nodes {
		nodes[i] = i
	}
	s = r.tr.begin(spSetupOther, 0)
	gen := workload.New(st.engine, workload.Config{
		Arrival: workload.Poisson, RatePerNode: p.Rate,
		Keys: p.Keys, KeyDist: workload.Zipf,
		WriteFraction: p.WriteFraction, MaxInFlight: p.MaxInFlight,
		DurationSecs: p.Duration,
	}, nodes, issue)
	r.tr.end(s)
	gen.Start()

	qc := st.sys.Config()
	horizon := math.Max(qc.AdvertiseTimeoutSecs, qc.LookupTimeout)
	r.run(st, phaseLookup, st.engine.Now()+p.Duration+3*horizon+10)
	diff := stats.DiffSince(loadStart)
	o.LkAppMsgs, o.LkRoutingMsgs = appRouting(diff)

	r.final(st, suite, &o, startEvents)
	ws := gen.Stats()
	o.WL = ws
	o.OpP50 = diff.LatencyQuantile(netstack.LatOp, 0.5)
	o.OpP99 = diff.LatencyQuantile(netstack.LatOp, 0.99)
	o.IssueSkew = gen.LoadSkew()
	o.ServeSkew = serveSkew(st.sys.ServedCounts())
	o.Lookups, o.Hits = int(ws.Reads), int(ws.Hits)
	o.LkOps = int(ws.Issued)
	o.AdMsgs = o.AdAppMsgs + o.AdRoutingMsgs
	o.LkMsgs = o.LkAppMsgs + o.LkRoutingMsgs
	o.Attempted = int64(p.Keys) + ws.Issued + ws.Shed
	o.Failed = (ws.Reads - ws.Hits) + int64(o.Counters.AdvertiseTimeouts) + ws.Shed
	return o
}

// serveSkew is max/mean over per-node serve counts (0 when nothing was
// served), the load figure's server-side skew.
func serveSkew(counts []int64) float64 {
	var max, sum int64
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(counts)))
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// n and shards are the node count and parallel width (provenance).
	n, shards int
	// subSeeds is how many distinct simulation seeds a measured run pools
	// its fidelity metrics over.
	subSeeds int
	drive    func(r *rep, seed int64) outcome
}

// workloads lists the benchmark's workloads. Seeds per run are chosen so
// the distinct-seed repetitions fill about four fifths of a 40-second run
// on a 2-core host, leaving time for the repeats.
func workloads() []workloadDef {
	scale := scale1k
	scale.Shards = runtime.NumCPU()
	return []workloadDef{
		{"paper-sinr", paperSINR.N, 0, 75, func(r *rep, seed int64) outcome { return drivePaper(paperSINR, r, seed) }},
		{"scale-1k", scale.N, scale.Shards, 30, func(r *rep, seed int64) outcome { return driveScale(scale, r, seed) }},
		{"load-ideal", loadIdeal.N, 0, 45, func(r *rep, seed int64) outcome { return driveLoad(loadIdeal, r, seed) }},
	}
}
