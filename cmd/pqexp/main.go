//pqlint:allow nowallclock(per-figure wall-clock reporting: recorded results surface perf regressions; no simulation state depends on it)

// Command pqexp regenerates the paper's figures and tables.
//
// Usage:
//
//	pqexp [flags] <figure> [figure...]
//	pqexp [flags] all
//
// Figures: fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16, plus tau, fig4series, crt, decay (the §6.1
// continuous-churn decay/recovery experiment) and chaos (the fault-injection
// harness: randomized partition/link-fault/jamming schedules with invariant
// checkers armed).
//
// `pqexp mega` runs the 10k-node scale exercise (DESIGN.md §12): SINR/DCF
// with the cell-noise interference model, continuous churn and a fault
// schedule live, invariant checkers on, and a go-bench-format metrics line
// (wall clock, allocations, peak heap) on stdout for cmd/benchjson. Tune it
// with -megan/-megashort/-workers. It is deliberately not part of "all".
//
// `pqexp giga` is the 100k-node tier (DESIGN.md §15): the mega scenario with
// oracle neighbor discovery, draw-on-demand membership views, and the
// oracle router's route memo (-shards controls its build parallelism, with
// bit-identical results at any width). Scale it down with -gigan for smoke
// runs; like mega, it is not part of "all".
//
// `pqexp load` runs the open-loop workload figure: Poisson and bursty MMPP
// arrivals with Zipf/uniform keys against every strategy mix, reporting
// throughput, exact p50/p99 op latency, shed/queue saturation, and load
// skew, with invariant checkers armed. Per-mix go-bench metric lines on
// stdout feed cmd/benchjson (`make load-smoke`); shrink it with -loadshort.
// Like mega, it is not part of "all".
//
// By default it runs the quick profile (ideal link layer, scaled-down
// sweep). Pass -full for the paper-scale configuration on the SINR stack
// (slow: hours), or tune -stack/-seeds/-bign individually.
//
// Simulation-backed figures fan their independent (point, seed) runs out
// on a worker pool; -parallel sizes it (default: all cores). Results are
// bit-for-bit identical at any parallelism. Each figure prints its wall
// clock and the effective parallelism so recorded results surface perf
// regressions.
//
// -cpuprofile and -memprofile write pprof profiles (CPU over the whole run,
// heap after the last figure) for `go tool pprof`; see DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"probquorum/internal/experiment"
	"probquorum/internal/netstack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqexp", flag.ContinueOnError)
	full := fs.Bool("full", false, "paper-scale profile (SINR stack, n up to 800, 10 seeds)")
	stack := fs.String("stack", "", "override stack: sinr | disk | ideal")
	seeds := fs.Int("seeds", 0, "override seeds per data point")
	bigN := fs.Int("bign", 0, "override the large-network size")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "sweep worker-pool size (independent runs in flight at once)")
	workers := fs.Int("workers", 0, "per-engine parallel-phase width for PHY evaluation (0 = serial; results identical at any width)")
	shards := fs.Int("shards", 0, "per-engine sharded-phase width for bulk route builds (0 = serial; results identical at any width)")
	megaN := fs.Int("megan", 10000, "node count for the mega scale scenario")
	gigaN := fs.Int("gigan", 100000, "node count for the giga scale scenario")
	megaShort := fs.Bool("megashort", false, "shrink the mega/giga scenario workloads for smoke tests")
	megaDense := fs.Bool("megadense", false, "mega/giga: opt out of lazy membership (the A/B baseline for the scale posture)")
	loadShort := fs.Bool("loadshort", false, "shrink the load figure's node count and duration for smoke tests")
	adaptShort := fs.Bool("adaptshort", false, "shrink the adapt figure's duration for smoke tests")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering every figure run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after all figures to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no figure given; try: pqexp fig10  (or: pqexp all)")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pqexp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects so live-heap numbers are accurate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pqexp: memprofile:", err)
			}
		}()
	}

	p := experiment.Quick()
	if *full {
		p = experiment.Full()
	}
	switch strings.ToLower(*stack) {
	case "":
	case "sinr":
		p.Stack = netstack.StackSINR
	case "disk":
		p.Stack = netstack.StackDisk
	case "ideal":
		p.Stack = netstack.StackIdeal
	default:
		return fmt.Errorf("unknown stack %q", *stack)
	}
	if *seeds > 0 {
		p.Seeds = *seeds
	}
	if *bigN > 0 {
		p.BigN = *bigN
	}
	p.Parallel = *parallel
	p.Workers = *workers
	p.Shards = *shards
	effective := p.Parallel
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}

	figs := fs.Args()
	if len(figs) == 1 && figs[0] == "all" {
		figs = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tau", "fig4series", "crt", "decay", "chaos"}
	}
	for _, f := range figs {
		if strings.EqualFold(f, "mega") {
			runMega(experiment.MegaConfig{N: *megaN, Seed: *seed, Workers: *workers, Shards: *shards, DenseMembership: *megaDense, Horizon: megaHorizon(*megaShort)})
			continue
		}
		if strings.EqualFold(f, "giga") {
			runMega(experiment.MegaConfig{Giga: true, N: *gigaN, Seed: *seed, Workers: *workers, Shards: *shards, DenseMembership: *megaDense, Horizon: megaHorizon(*megaShort)})
			continue
		}
		if strings.EqualFold(f, "load") {
			if err := runLoad(experiment.LoadConfig{
				Seed: *seed, Parallel: *parallel, Workers: *workers,
				Horizon: loadHorizon(*loadShort),
			}); err != nil {
				return err
			}
			continue
		}
		if strings.EqualFold(f, "adapt") {
			if err := runAdapt(experiment.AdaptFigConfig{
				Seeds: *seeds, Seed: *seed, Parallel: *parallel, Workers: *workers,
				Horizon: adaptHorizon(*adaptShort),
			}); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		tables, err := runFigure(f, p, *seed)
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		// Wall-clock per figure, on stdout so recorded results files (e.g.
		// results_quick.txt) surface perf regressions alongside the data.
		fmt.Printf("# %s: %.2fs wall clock, parallel=%d\n\n", f, time.Since(start).Seconds(), effective)
		if *csvDir != "" {
			paths, err := experiment.WriteCSVFiles(*csvDir, tables)
			if err != nil {
				return err
			}
			for _, path := range paths {
				fmt.Fprintln(os.Stderr, "wrote", path)
			}
		}
	}
	return nil
}

func megaHorizon(short bool) float64 {
	if short {
		return 0.15
	}
	return 1
}

func loadHorizon(short bool) float64 {
	if short {
		return 0.2
	}
	return 1
}

func adaptHorizon(short bool) float64 {
	if short {
		return 0.2
	}
	return 1
}

// runLoad executes the open-loop load figure and prints the data table
// (bit-identical at any -parallel/-workers) followed by one go-bench
// metrics line per strategy mix for cmd/benchjson. Any invariant violation
// — the checkers run armed, including the pending-op drain assertion — is
// an error, making `make load-smoke` a CI gate and not just a report.
func runLoad(lc experiment.LoadConfig) error {
	results := experiment.RunLoad(lc)
	fmt.Println(experiment.LoadTable(lc, results))
	violations := 0
	for _, r := range results {
		fmt.Println(r.BenchLine())
		violations += r.Report.Violations
	}
	fmt.Println()
	if violations > 0 {
		return fmt.Errorf("load: %d invariant violations (see table)", violations)
	}
	return nil
}

// runAdapt executes the adaptive-sizing chaos figure and prints one
// trajectory table per drift shape (bit-identical at any
// -parallel/-workers) followed by a go-bench metrics line per drift for
// cmd/benchjson. Invariant violations or leaked ops — the checkers run
// armed, including the controller's resize-bounds watch — are an error, so
// `make adapt-smoke` gates CI instead of just reporting.
func runAdapt(ac experiment.AdaptFigConfig) error {
	results := experiment.RunAdapt(ac)
	violations := 0
	leaked := 0.0
	for _, r := range results {
		fmt.Println(r.Table())
		violations += r.Static.Violations + r.Adaptive.Violations
		leaked += r.Static.LeakedOps + r.Adaptive.LeakedOps
		for _, v := range []experiment.AdaptVariantResult{r.Static, r.Adaptive} {
			if v.FirstViolation != "" {
				fmt.Printf("# %s/%s first violation: %s\n", r.Drift, v.Variant, v.FirstViolation)
			}
		}
	}
	for _, r := range results {
		fmt.Println(r.BenchLine())
	}
	fmt.Println()
	if violations > 0 || leaked > 0 {
		return fmt.Errorf("adapt: %d invariant violations, %.0f leaked ops", violations, leaked)
	}
	return nil
}

// runMega executes the scale scenario and prints both the human table and
// the go-bench metrics line (the latter is what `make mega-smoke` pipes
// into cmd/benchjson -merge).
func runMega(mc experiment.MegaConfig) {
	res := experiment.RunMega(mc)
	fmt.Println(res.Table())
	fmt.Println(res.BenchLine())
	fmt.Println()
}

func runFigure(name string, p experiment.Profile, seed int64) ([]experiment.Table, error) {
	switch strings.ToLower(name) {
	case "fig3":
		return []experiment.Table{experiment.Fig3()}, nil
	case "fig4":
		return experiment.Fig4(p, seed), nil
	case "fig5":
		return experiment.Fig5(p, seed), nil
	case "fig6":
		return []experiment.Table{experiment.Fig6()}, nil
	case "fig7":
		return experiment.Fig7(), nil
	case "fig8":
		return experiment.Fig8(p, seed), nil
	case "fig9":
		return experiment.Fig9(p, seed), nil
	case "fig10":
		return experiment.Fig10(p, seed), nil
	case "fig11":
		return experiment.Fig11(p, seed), nil
	case "fig12":
		return experiment.Fig12(p, seed), nil
	case "fig13":
		return experiment.Fig13(p, seed), nil
	case "fig14":
		return experiment.Fig14(p, seed), nil
	case "fig15":
		return experiment.Fig15(p, seed), nil
	case "fig16":
		return experiment.Fig16(p, seed), nil
	case "tau", "lemma56":
		return experiment.TauSweep(p, seed), nil
	case "fig4series":
		return experiment.Fig4Series(p, seed), nil
	case "crt", "crossing":
		return experiment.CrossingTime(p, seed), nil
	case "decay", "churn":
		return experiment.FigDecay(p, seed), nil
	case "chaos", "faults":
		return experiment.FigChaos(p, seed), nil
	default:
		return nil, fmt.Errorf("unknown figure %q", name)
	}
}
