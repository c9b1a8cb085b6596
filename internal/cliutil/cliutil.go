// Package cliutil holds the small pieces shared by the avstore, avql,
// and avstored commands and the server: building store options from the
// common -cache-bytes / -parallelism flags, signal-aware cleanup, the
// text forms of boxes and layout policies, and the text form of
// Store.Stats() counters.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/trace"
)

// StoreOptions returns the default store options with the shared
// -cache-bytes, -parallelism, and -durable flag values applied. Durable
// opens fsync every commit and run crash recovery at Open. Only the
// daemon (which owns its store exclusively) and `avstore fsck` default
// it on; avstore/avql default it off so read-only invocations never
// mutate a store directory another process may own, and benchmarks
// keep it off so I/O accounting matches the paper.
func StoreOptions(cacheBytes int64, parallelism int, durable bool) core.Options {
	opts := core.DefaultOptions()
	opts.CacheBytes = cacheBytes
	opts.Parallelism = parallelism
	opts.Durability = durable
	return opts
}

// CleanupOnSignal runs cleanup and exits (130 on SIGINT, 143 on
// SIGTERM) when an interrupt arrives, so commands close their store
// instead of dying mid-operation. The returned stop func deregisters
// the handler; call it before a normal exit so the cleanup cannot race
// the caller's own deferred teardown.
func CleanupOnSignal(cleanup func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			cleanup()
			code := 130
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// ParseBox parses the "lo,lo:hi,hi" region syntax shared by the avstore
// CLI and the select query parameters (hi exclusive).
func ParseBox(spec string) (array.Box, error) {
	halves := strings.Split(spec, ":")
	if len(halves) != 2 {
		return array.Box{}, fmt.Errorf("bad box %q (want lo,lo:hi,hi)", spec)
	}
	parse := func(s string) ([]int64, error) {
		var out []int64
		for _, p := range strings.Split(s, ",") {
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad box coordinate %q", p)
			}
			out = append(out, v)
		}
		return out, nil
	}
	lo, err := parse(halves[0])
	if err != nil {
		return array.Box{}, err
	}
	hi, err := parse(halves[1])
	if err != nil {
		return array.Box{}, err
	}
	return array.NewBox(lo, hi), nil
}

// FormatBox renders a box in the syntax ParseBox accepts.
func FormatBox(b array.Box) string {
	join := func(vs []int64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = strconv.FormatInt(v, 10)
		}
		return strings.Join(parts, ",")
	}
	return join(b.Lo) + ":" + join(b.Hi)
}

// ParsePolicy parses a layout policy name as printed by
// core.LayoutPolicy.String.
func ParsePolicy(s string) (core.LayoutPolicy, error) {
	switch s {
	case "optimal":
		return core.PolicyOptimal, nil
	case "algorithm1":
		return core.PolicyAlgorithm1, nil
	case "algorithm2":
		return core.PolicyAlgorithm2, nil
	case "linear":
		return core.PolicyLinearChain, nil
	case "head":
		return core.PolicyHeadBiased, nil
	case "workload":
		return core.PolicyWorkloadAware, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// WriteStats prints the Store.Stats() counters one per line, each under
// the snake_case name of its IOStats field.
func WriteStats(w io.Writer, st core.IOStats) {
	trace.Fields(st, func(name string, n int64) { fmt.Fprintf(w, "%-16s %d\n", name, n) })
}

// WriteTrace renders one completed trace as an EXPLAIN ANALYZE-style
// per-stage table: stage name, call count, cumulative time, share of
// the trace's total duration, and bytes handled, followed by the
// trace's counters (cache hits/misses, chunks decoded, bytes read).
// Stages appear in first-observation order, which follows the pipeline.
func WriteTrace(w io.Writer, sum trace.Summary) {
	total := time.Duration(sum.DurationNs)
	fmt.Fprintf(w, "trace %s (%s) — total %s\n", sum.ID, sum.Name, total.Round(time.Microsecond))
	if len(sum.Stages) == 0 {
		fmt.Fprintf(w, "  (no pipeline stages recorded)\n")
	} else {
		fmt.Fprintf(w, "  %-14s %8s %12s %8s %12s\n", "stage", "calls", "time", "share", "bytes")
		for _, st := range sum.Stages {
			share := "-"
			if sum.DurationNs > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(st.Nanos)/float64(sum.DurationNs))
			}
			fmt.Fprintf(w, "  %-14s %8d %12s %8s %12d\n",
				st.Stage, st.Count, time.Duration(st.Nanos).Round(time.Microsecond), share, st.Bytes)
		}
	}
	if len(sum.Attrs) > 0 {
		keys := make([]string, 0, len(sum.Attrs))
		for k := range sum.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  counters:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, sum.Attrs[k])
		}
		fmt.Fprintln(w)
	}
}
