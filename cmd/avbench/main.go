// Command avbench regenerates the paper's evaluation tables (§V) on the
// synthetic dataset substitutes at laptop scale.
//
// Usage:
//
//	avbench [-experiment all|table1|table2|table3|table4|table5|table6|table7|materialization|workload|ablations]
//	        [-scale default|quick] [-workdir DIR]
//
// Each experiment prints a table mirroring the paper's rows; experiment
// ids E1–E10 follow DESIGN.md's experiment index. The repo's end-to-end
// benchmark against a real avstored is benchmark/, not this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"arrayvers/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "all, table1..table7, materialization, workload, or ablations")
	scaleName := flag.String("scale", "default", "scale preset: default or quick")
	workdir := flag.String("workdir", "", "scratch directory (default: a temp dir)")
	flag.Parse()

	var sc bench.Scale
	switch *scaleName {
	case "default":
		sc = bench.DefaultScale()
	case "quick":
		sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "avbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "avbench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}

	run := func(name string) {
		switch name {
		case "table1":
			t, err := bench.Table1(sc)
			emit(t, err)
		case "table2":
			t, err := bench.Table2(sc)
			emit(t, err)
		case "table3", "table4":
			t3, t4, err := bench.Table3And4(dir, sc)
			if name == "table3" {
				emit(t3, err)
			} else {
				emit(t4, err)
			}
		case "table5":
			t, err := bench.Table5(dir, sc)
			emit(t, err)
		case "table6":
			t, err := bench.Table6(dir, sc)
			emit(t, err)
		case "table7":
			t, err := bench.Table7(dir, sc)
			emit(t, err)
		case "materialization":
			t, err := bench.Materialization(dir, sc)
			emit(t, err)
		case "workload":
			t, err := bench.WorkloadAware(dir, sc)
			emit(t, err)
		case "ablations":
			t, err := bench.Ablations(dir, sc)
			emit(t, err)
		default:
			fmt.Fprintf(os.Stderr, "avbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *experiment == "all" {
		t1, err := bench.Table1(sc)
		emit(t1, err)
		t2, err := bench.Table2(sc)
		emit(t2, err)
		t3, t4, err := bench.Table3And4(dir, sc)
		emit(t3, err)
		emit(t4, nil)
		t5, err := bench.Table5(dir, sc)
		emit(t5, err)
		t6, err := bench.Table6(dir, sc)
		emit(t6, err)
		t7, err := bench.Table7(dir, sc)
		emit(t7, err)
		tm, err := bench.Materialization(dir, sc)
		emit(tm, err)
		tw, err := bench.WorkloadAware(dir, sc)
		emit(tw, err)
		ta, err := bench.Ablations(dir, sc)
		emit(ta, err)
		return
	}
	run(*experiment)
}

func emit(t bench.Table, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(t.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "avbench: %v\n", err)
	os.Exit(1)
}
