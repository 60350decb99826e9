package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"probquorum/internal/experiment"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/workload"
)

// The fidelity tests prove the benchmark measures the program: each
// workload, composed here from the layers' constructors, must reproduce
// the experiment harness's own run of the same scenario and seed exactly.
// They run with tracing off, as the measured runs do.

// loadMixName is the harness's load-figure row load-ideal reproduces.
const loadMixName = "RANDOM × RANDOM"

func untraced(drive func(r *rep, seed int64) outcome, seed int64) outcome {
	return drive(newRep(newTracer(false)), seed)
}

// harnessResult computes the harness Result fields from an outcome with
// the harness's own formulas.
func harnessResult(o outcome) experiment.Result {
	res := experiment.Result{Runs: 1, Counters: o.Counters}
	res.LeakedOps = float64(o.Report.LeakedLookups + o.Report.LeakedAds)
	res.AvgHopLatency = o.HopLatency
	res.LossDrops = float64(o.Net[netLossDrops])
	if o.Lookups > 0 {
		res.HitRatio = float64(o.Hits) / float64(o.Lookups)
		res.IntersectRatio = float64(o.Intersects) / float64(o.Lookups)
		res.LookupAppMsgs = float64(o.LkAppMsgs) / float64(o.Lookups)
		res.LookupRoutingMsgs = float64(o.LkRoutingMsgs) / float64(o.Lookups)
	}
	if o.Intersects > 0 {
		res.ReplyDropRatio = float64(o.Intersects-o.Hits) / float64(o.Intersects)
	}
	if o.Hits > 0 {
		res.AvgLatency = o.HitLatencySum / float64(o.Hits)
	}
	if o.Ads > 0 {
		res.AdvertiseAppMsgs = float64(o.AdAppMsgs) / float64(o.Ads)
		res.AdvertiseRoutingMsgs = float64(o.AdRoutingMsgs) / float64(o.Ads)
		res.AvgPlaced = float64(o.Placed) / float64(o.Ads)
	}
	return res
}

func paperScenario(p paperParams, seed int64) experiment.Scenario {
	return experiment.Scenario{
		N: p.N, AvgDegree: 10, Stack: netstack.StackSINR, Seed: seed,
		Quorum:         quorum.DefaultConfig(p.N),
		Advertisements: p.Ads, Lookups: p.Lookups, LookupNodes: p.LookupNodes,
		AdvertiseGapSecs: p.AdGap, LookupGapSecs: p.LookupGap, WarmupSecs: p.Warmup,
	}
}

func TestPaperMatchesHarness(t *testing.T) {
	p := paperSINR
	if testing.Short() {
		p.N, p.Ads, p.Lookups = 100, 4, 100
	}
	const seed = 11
	got := harnessResult(untraced(func(r *rep, s int64) outcome { return drivePaper(p, r, s) }, seed))
	want := experiment.Run(paperScenario(p, seed))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paper-sinr diverges from experiment.Run:\n got %+v\nwant %+v", got, want)
	}
	if got.HitRatio == 0 || got.AvgPlaced == 0 {
		t.Fatalf("degenerate run: %+v", got)
	}
}

func scaleConfig(p scaleParams, seed int64) experiment.MegaConfig {
	return experiment.MegaConfig{
		N: p.N, Seed: seed, Giga: true, Shards: p.Shards,
		Advertisements: p.Ads, Lookups: p.Lookups, LookupNodes: p.LookupNodes,
		WarmupSecs: p.Warmup, ChurnRate: p.ChurnRate, Severity: p.Severity,
	}
}

// TestScaleMatchesHarness runs scale-1k at the width the benchmark uses
// and the harness's giga tier at width 1, so it also shows the sharded
// width does not change the simulation.
func TestScaleMatchesHarness(t *testing.T) {
	p := scale1k
	p.Shards = runtime.NumCPU()
	if testing.Short() {
		p.N, p.Ads, p.Lookups = 600, 6, 30
	}
	const seed = 5
	o := untraced(func(r *rep, s int64) outcome { return driveScale(p, r, s) }, seed)
	cfg := scaleConfig(p, seed)
	cfg.Shards = 1
	want := experiment.RunMega(cfg)
	got := experiment.MegaResult{
		Lookups: o.Lookups, Hits: o.Hits, Intersects: o.Intersects,
		ChurnFails: o.ChurnFails, ChurnJoins: o.ChurnJoins,
		Report: o.Report, Events: o.Events,
	}
	want = experiment.MegaResult{
		Lookups: want.Lookups, Hits: want.Hits, Intersects: want.Intersects,
		ChurnFails: want.ChurnFails, ChurnJoins: want.ChurnJoins,
		Report: want.Report, Events: want.Events,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scale-1k diverges from experiment.RunMega:\n got %+v\nwant %+v", got, want)
	}
	if got.Lookups == 0 || got.ChurnFails+got.ChurnJoins == 0 {
		t.Fatalf("degenerate run: %+v", got)
	}
}

func TestLoadMatchesHarness(t *testing.T) {
	p := loadIdeal
	if testing.Short() {
		p.N, p.Duration = 100, 20
	}
	const seed = 3
	o := untraced(func(r *rep, s int64) outcome { return driveLoad(p, r, s) }, seed)
	rows := experiment.RunLoad(experiment.LoadConfig{
		N: p.N, Seed: seed, RatePerNode: p.Rate, DurationSecs: p.Duration,
		Keys: p.Keys, WriteFraction: p.WriteFraction, MaxInFlight: p.MaxInFlight,
	})
	var want experiment.LoadMixResult
	for _, r := range rows {
		if r.Mix == loadMixName {
			want = r
		}
	}
	if want.Mix == "" {
		t.Fatalf("harness has no %q row", loadMixName)
	}
	got := experiment.LoadMixResult{
		Mix: want.Mix, Arrival: workload.Poisson, KeyDist: workload.Zipf, WL: o.WL,
		OpsPerSec: float64(o.WL.Completed) / p.Duration,
		P50:       o.OpP50, P99: o.OpP99,
		HitRatio:  float64(o.WL.Hits) / float64(o.WL.Reads),
		IssueSkew: o.IssueSkew, ServeSkew: o.ServeSkew,
		OwnerHits: o.Counters.OwnerHits, CacheHits: o.Counters.CacheHits,
		Report: o.Report,
	}
	want.WallSecs = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("load-ideal diverges from experiment.RunLoad:\n got %+v\nwant %+v", got, want)
	}
}

// TestTracingTransparent checks that the traced run simulates exactly what
// the untraced one does (the router decorator keeps RoutePrefetcher, so
// the route cache still sees prefetches), and that the sharded width does
// not change the simulation.
func TestTracingTransparent(t *testing.T) {
	paper := paperSINR
	paper.N, paper.Ads, paper.Lookups = 100, 4, 100
	scale := scale1k
	scale.Shards = runtime.NumCPU()
	scale.N, scale.Ads, scale.Lookups = 800, 8, 40
	serial := scale
	serial.Shards = 1
	load := loadIdeal
	load.N, load.Duration = 100, 20
	drives := map[string]func(r *rep, seed int64) outcome{
		"paper":  func(r *rep, s int64) outcome { return drivePaper(paper, r, s) },
		"scale":  func(r *rep, s int64) outcome { return driveScale(scale, r, s) },
		"serial": func(r *rep, s int64) outcome { return driveScale(serial, r, s) },
		"load":   func(r *rep, s int64) outcome { return driveLoad(load, r, s) },
	}
	const seed = 9
	digests := map[string][32]byte{}
	for name, drive := range drives {
		off := untraced(drive, seed)
		tr := newTracer(true)
		on := drive(newRep(tr), seed)
		if digest(off) != digest(on) {
			t.Errorf("%s: traced digest differs from untraced", name)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
		if name == "scale" && tr.prefetchCalls == 0 {
			t.Errorf("scale: decorator hid RoutePrefetcher (no prefetch calls)")
		}
		digests[name] = digest(off)
	}
	if digests["scale"] != digests["serial"] {
		t.Errorf("sharded width %d digest differs from width 1", runtime.NumCPU())
	}
}

// TestFailedRunsCount checks that a repetition with an invariant
// violation, a leaked op, or a digest that does not reproduce fails the
// run and counts its operations as failed.
func TestFailedRunsCount(t *testing.T) {
	base := outcome{Attempted: 10, Lookups: 5, Hits: 5, Ads: 5, Requested: 5, Placed: 5}
	cases := map[string]func(rep int) outcome{
		"clean": func(int) outcome { return base },
		"violation": func(int) outcome {
			o := base
			o.Report.Violations = 1
			return o
		},
		"leak": func(int) outcome {
			o := base
			o.Report.LeakedAds = 1
			return o
		},
		"nondeterministic": func(rep int) outcome {
			o := base
			o.Events = uint64(rep)
			return o
		},
	}
	for name, mk := range cases {
		n := 0
		w := workloadDef{name: name, subSeeds: 2, drive: func(r *rep, seed int64) outcome {
			n++
			return mk(n)
		}}
		res := measuredRun(w, 1, time.Millisecond)
		if wantOK := name == "clean"; res.Correct != wantOK || (res.Failed == 0) != wantOK {
			t.Errorf("%s: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestEndToEndComplete checks that a measured run reports every end-to-end
// metric and a traced run every per-layer metric.
func TestEndToEndComplete(t *testing.T) {
	load := loadIdeal
	load.N, load.Duration = 100, 20
	w := workloadDef{name: "load-small", subSeeds: 1, drive: func(r *rep, s int64) outcome { return driveLoad(load, r, s) }}
	res := measuredRun(w, 1, 0)
	for _, m := range endToEndMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("measured run lacks %s", m.name)
		}
	}
	tres := tracedRun(w, 1, 0, t.TempDir())
	for _, m := range perLayerMetrics {
		if _, ok := tres.Metrics[m.name]; !ok && m.name != "sim.run_s" {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	if !res.Correct || !tres.Correct {
		t.Errorf("runs failed: %v %v", res.notes, tres.notes)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	var e2e []metric
	for _, m := range endToEndMetrics {
		e2e = append(e2e, metric{m.name, m.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, program reports %v", spec.EndToEnd, e2e)
	}
	var layer []metric
	for _, m := range perLayerMetrics {
		if m.name != "sim.run_s" {
			layer = append(layer, metric{m.name, m.unit})
		}
	}
	layer = append(layer, metric{"trace.overhead_s", "s"})
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("per_layer %v, program reports %v", spec.PerLayer, layer)
	}
}

func TestPercentileMidQuantile(t *testing.T) {
	// Quantized samples: 55 at 3, 45 at 4 (plus tail at 5).
	var v []float64
	for i := 0; i < 55; i++ {
		v = append(v, 3)
	}
	for i := 0; i < 45; i++ {
		v = append(v, 4)
	}
	for i := 0; i < 20; i++ {
		v = append(v, 5)
	}
	p, ok := percentile(v, 0.5)
	// groups: 3 at mid 27.5/120, 4 at (55+22.5)/120, so p50 lies between.
	if !ok || p <= 3 || p >= 4 {
		t.Fatalf("p50 = %v, %v", p, ok)
	}
	// Distinct samples: ordinary interpolated quantile.
	var d []float64
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	if p, _ := percentile(d, 0.5); p != 50.5 {
		t.Fatalf("distinct p50 = %v", p)
	}
	if _, ok := percentile(d[:95], 0.9); ok {
		t.Fatal("p90 of 95 samples has fewer than ten beyond it")
	}
}
