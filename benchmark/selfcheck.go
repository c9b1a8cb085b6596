package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// selfcheckRuns is how many untraced runs of a workload each side of the
// self-check is the median of.
const selfcheckRuns = 3

// runSelfcheck measures the same code twice and fails when any end-to-end
// metric of any workload differs between the two sides by more than the
// bound BENCHMARK.json gives it. A side is the median of selfcheckRuns
// runs, and the sides take turns (A B A B A B): single runs on the sandbox
// differ by up to a third when the machine changes pace, which is why the
// driver too compares medians, and taking turns gives both sides the same
// share of every pace. The table it prints is the evidence behind each
// bound.
func runSelfcheck(cfg config, decl *declaration, selected []*workload, seed int64, seconds float64) (int, error) {
	rep := &report{Fingerprint: fingerprint(cfg.out), Seed: seed, Seconds: seconds, Smoke: cfg.smoke}
	runs := selfcheckRuns
	if cfg.smoke {
		runs = 1
	}
	failed, beyond := 0, 0
	fmt.Printf("%-16s %-28s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range selected {
		var sides [2]map[string][]float64
		sides[0], sides[1] = make(map[string][]float64), make(map[string][]float64)
		for i := 0; i < 2*runs; i++ {
			res, err := runOnce(cfg, w, seed, seconds, false)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Runs = append(rep.Runs, res)
			failed += res.Failed
			for name, m := range res.Metrics {
				sides[i%2][name] = append(sides[i%2][name], m.Value)
			}
		}
		for _, m := range decl.EndToEnd {
			a, b := median(sides[0][m.Name]), median(sides[1][m.Name])
			worse := worseBy(a, b, m.Better)
			mark := ""
			if worse > m.Bound {
				mark = "  BEYOND BOUND"
				beyond++
			}
			fmt.Printf("%-16s %-28s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	if err := rep.write(filepath.Join(cfg.out, "selfcheck.json")); err != nil {
		return 1, err
	}
	switch {
	case failed > 0:
		return 1, fmt.Errorf("%d failed ops or checks", failed)
	case beyond > 0:
		fmt.Fprintf(os.Stderr, "benchmark: %d metrics moved by more than their bound between two measurements of the same code\n", beyond)
		return 1, nil
	}
	return 0, nil
}

// worseBy is how much the worse of two measurements is worse than the
// better one, as a share of the better one. Two measurements of the same
// code have no order, so the direction only says which is the better.
func worseBy(a, b float64, better string) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return 0
	}
	if better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
