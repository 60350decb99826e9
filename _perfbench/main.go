// Command perfbench is the repository benchmark. It composes the
// simulation stack from each layer's public constructors, drives one of
// three named workloads for a wall-clock budget, checks every repetition
// (invariant suite, op leaks, determinism digest), and prints the
// workload's metrics as one JSON object on the last line of stdout.
//
// Usage (from the repository root):
//
//	python3 _perfbench/run.py --workload paper-sinr --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, measured from spans the benchmark records around its
// own calls into each layer, and writes the spans and a CPU profile under
// --out. README.md lists every metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same simulation inputs")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".out", "directory for run records, spans and CPU profiles")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	var defs []workloadDef
	for _, w := range workloads() {
		if *name == "all" || w.name == *name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fail(fmt.Sprintf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err.Error())
	}
	budget := time.Duration(*seconds * float64(time.Second))
	prov := provenance(*seed, *trace, *seconds)

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range defs {
		var res result
		if *trace == 1 {
			res = tracedRun(w, *seed, budget, filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed)))
		} else {
			res = measuredRun(w, *seed, budget)
		}
		p := prov.forWorkload(w, res)
		report(os.Stdout, w.name, p, res)
		if err := writeRecord(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), p, res); err != nil {
			fail(err.Error())
		}
		if len(defs) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(line))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Bookkeeping for the run record, not printed on the verdict line.
	reps, subSeeds int
	horizon        float64
	notes          []string
	// repRunS and repRef are each repetition's unscaled run_s and reference
	// kernel time, in order, for the run record.
	repRunS, repRef []float64
}

// simSeed derives the k-th simulation seed of an input seed (splitmix64).
func simSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// runRep executes one repetition with a fresh stack. It times the
// reference kernel first, then collects garbage so no repetition pays for
// the previous one's heap or the kernel's.
func runRep(w workloadDef, seed int64, tr *tracer) (outcome, hostCost) {
	ref := referenceTime()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := newRep(tr)
	o := w.drive(r, seed)
	runtime.ReadMemStats(&after)
	r.cost.Reference = ref
	r.cost.Alloc = after.TotalAlloc - before.TotalAlloc
	r.cost.GCCycles = after.NumGC - before.NumGC
	r.cost.GCPause = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	return o, r.cost
}

// digest fingerprints a repetition's simulated output.
func digest(o outcome) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", o)))
}

// verdict reports why a repetition failed outright ("" when it passed).
func verdict(o outcome) string {
	rp := o.Report
	switch {
	case rp.LeakedLookups+rp.LeakedAds > 0:
		return fmt.Sprintf("%d leaked ops", rp.LeakedLookups+rp.LeakedAds)
	case rp.Violations > 0:
		return fmt.Sprintf("%d invariant violations: %v", rp.Violations, rp.Details)
	}
	return ""
}

// measuredRun repeats the workload until the budget is spent. Repetition
// r uses simulation seed k = r mod subSeeds; the first subSeeds
// repetitions supply the fidelity metrics (pooled), every later one must
// reproduce its seed's digest, and all of them supply host costs
// (medians).
func measuredRun(w workloadDef, seed int64, budget time.Duration) result {
	res := result{Correct: true, subSeeds: w.subSeeds}
	var pooled []outcome
	var costs []hostCost
	digests := make([][32]byte, w.subSeeds)
	start := time.Now()
	for r := 0; r <= w.subSeeds || time.Since(start) < budget; r++ {
		k := r % w.subSeeds
		o, c := runRep(w, simSeed(seed, k), newTracer(false))
		costs = append(costs, c)
		res.repRunS = append(res.repRunS, c.Run)
		res.repRef = append(res.repRef, c.Reference)
		res.Attempted += o.Attempted
		why := verdict(o)
		d := digest(o)
		if r < w.subSeeds {
			digests[k] = d
			pooled = append(pooled, o)
			if o.Horizon > res.horizon {
				res.horizon = o.Horizon
			}
		} else if d != digests[k] {
			why = fmt.Sprintf("digest of repetition %d differs from the first run of seed %d", r, simSeed(seed, k))
		}
		if why != "" {
			res.Correct = false
			res.Failed += o.Attempted
			res.notes = append(res.notes, why)
		}
	}
	res.reps = len(costs)
	res.Metrics = endToEnd(pooled, costs)
	return res
}

// tracedRun alternates untraced and traced repetitions of one simulation
// seed until the budget is spent (at least one of each). Every repetition
// must produce the same digest, which is the tracing-transparency check.
// The first traced repetition also writes its spans and a CPU profile
// under dir; per-layer timings are medians over the traced repetitions,
// leaving out the profiled one when there are others.
func tracedRun(w workloadDef, seed int64, budget time.Duration, dir string) result {
	res := result{Correct: true, subSeeds: 1}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err.Error())
	}
	var first [32]byte
	var untracedRun []float64
	var layers []map[string]metricValue
	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < budget; r++ {
		traced := r%2 == 1
		tr := newTracer(traced)
		var prof *os.File
		if r == 1 {
			f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
			if err != nil {
				fail(err.Error())
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err.Error())
			}
			prof = f
		}
		o, c := runRep(w, simSeed(seed, 0), tr)
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				fail(err.Error())
			}
			if err := tr.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
				fail(err.Error())
			}
		}
		res.Attempted += o.Attempted
		why := verdict(o)
		d := digest(o)
		if r == 0 {
			first = d
			res.horizon = o.Horizon
		} else if d != first {
			why = fmt.Sprintf("traced=%v repetition %d digest differs from the first repetition", traced, r)
		}
		if why != "" {
			res.Correct = false
			res.Failed += o.Attempted
			res.notes = append(res.notes, why)
		}
		if traced {
			layers = append(layers, perLayer(o, c, tr))
		} else {
			untracedRun = append(untracedRun, c.Run)
		}
	}
	res.reps = len(layers) + len(untracedRun)
	if len(layers) > 1 {
		layers = layers[1:]
	}
	res.Metrics = map[string]metricValue{}
	for _, m := range perLayerMetrics {
		vals := make([]float64, len(layers))
		for i, l := range layers {
			vals[i] = l[m.name].Value
		}
		res.Metrics[m.name] = metricValue{median(vals), m.unit}
	}
	tracedRunS := make([]float64, len(layers))
	for i, l := range layers {
		tracedRunS[i] = l["sim.run_s"].Value
	}
	res.Metrics["trace.overhead_s"] = metricValue{median(tracedRunS) - median(untracedRun), "s"}
	delete(res.Metrics, "sim.run_s")
	return res
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// runProvenance records where a result came from.
type runProvenance struct {
	Workload     string  `json:"workload"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Seed         int64   `json:"seed"`
	Trace        int     `json:"trace"`
	RunSeconds   float64 `json:"run_seconds"`
	N            int     `json:"n"`
	Shards       int     `json:"parallel_width"`
	HorizonSecs  float64 `json:"horizon_sim_s"`
	SubSeeds     int     `json:"sub_seeds"`
	Reps         int     `json:"repetitions"`
}

func provenance(seed int64, trace int, seconds float64) runProvenance {
	return runProvenance{
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Seed:         seed,
		Trace:        trace,
		RunSeconds:   seconds,
	}
}

func (p runProvenance) forWorkload(w workloadDef, res result) runProvenance {
	p.Workload = w.name
	p.N = w.n
	p.Shards = w.shards
	p.HorizonSecs = res.horizon
	p.SubSeeds = res.subSeeds
	p.Reps = res.reps
	return p
}

// gitCommit reads HEAD from a .git directory in the working directory,
// or returns "unknown" (benchmark checkouts need not be repositories).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources under the working
// directory (hidden, underscore and testdata directories excluded), so a
// result identifies the code it measured even without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the human-readable summary of one workload's run.
func report(w io.Writer, name string, p runProvenance, res result) {
	pj, _ := json.Marshal(p)
	fmt.Fprintf(w, "# provenance %s\n", pj)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-12s %-32s %16.6g %s\n", name, k, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# FAILED %s: %s\n", name, n)
	}
}

// writeRecord stores the run's provenance and verdict as JSON.
func writeRecord(path string, p runProvenance, res result) error {
	b, err := json.MarshalIndent(struct {
		Provenance runProvenance `json:"provenance"`
		Result     result        `json:"result"`
		RepRunS    []float64     `json:"repetition_run_s,omitempty"`
		RepRef     []float64     `json:"repetition_reference_s,omitempty"`
		Notes      []string      `json:"notes,omitempty"`
	}{p, res, res.repRunS, res.repRef, res.notes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
