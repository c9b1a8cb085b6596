// Command avstore administers a versioned array store from the command
// line: create arrays, load versions from array blob files, select
// versions or regions, inspect metadata, and reorganize layouts.
//
// Usage:
//
//	avstore -store DIR create  -name A -dims Y:0:255,X:0:255 -attrs V:float32
//	avstore -store DIR load    -name A -file v1.dat
//	avstore -store DIR batch   -parts A=v1.dat,B=v2.dat   # one atomic cross-array commit
//	avstore batch -addr http://host:7421 -parts A=v1.dat,B=v2.dat
//	avstore -store DIR select  -name A -version 3 [-box 0,0:16,16] [-out f.dat] [-trace]
//	avstore select -addr http://host:7421 -name A -version 3 [-box ...] [-trace]
//	avstore -store DIR versions -name A
//	avstore -store DIR info    -name A
//	avstore -store DIR stats             # or: avstore stats -addr http://host:7421
//	avstore -store DIR list
//	avstore -store DIR reorganize -name A -policy optimal|algorithm1|algorithm2|linear|head
//	avstore -store DIR reorganize -name A -policy workload -spec "1*50,3-8*10"
//	avstore -store DIR tune    -name A -spec "1*50,3-8*10"
//	avstore tune -addr http://host:7421 -name A -spec "1*50,3-8*10"
//	avstore -store DIR delete-version -name A -version 2
//	avstore -store DIR verify  -name A
//	avstore -store DIR fsck    [-name A]
//	avstore -store DIR drop    -name A
//
// tune prices the array's layout on disk against the workload-aware
// layout (§IV-D) for the workload given by -spec, and re-lays the array
// out when the projected I/O savings reach 10%. The workload is known a
// priori, as the paper assumes: comma-separated v*weight (snapshot) or
// lo-hi*weight (range) terms, weight 1 when omitted. reorganize -policy
// workload takes the same -spec and rewrites unconditionally. With
// -addr, tune runs on a live daemon.
//
// select -trace runs the query under a trace and prints its per-stage
// breakdown (snapshot, cache, read, decode, delta, materialize) to
// stderr — EXPLAIN ANALYZE for box selects. With -addr the query runs
// on the daemon carrying an AV-Trace-Id header, and the breakdown is
// fetched back from the daemon's /debug/traces ring, so the stages
// reflect the server-side pipeline.
//
// The global -cache-bytes and -parallelism flags tune the decoded-chunk
// cache and the hot-path worker pool for the invocation. The global
// -durable flag fsyncs every commit and runs crash recovery at open; it
// is off by default so that read-only subcommands never mutate a store
// directory (recovery truncates and sweeps — running it under a live
// avstored would corrupt the daemon's in-flight writes). fsck forces it
// on, reports what recovery repaired, then deep-verifies the store-wide
// manifest commit log (checksums, sequence continuity, orphaned-record
// sweep) and runs the full integrity check over every array; only run
// fsck with the daemon stopped.
//
// batch loads several blob files into several arrays under ONE commit
// point (the manifest log's atomic cross-array append): either every
// named array gains its version or none does, even across a crash.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"arrayvers"
	"arrayvers/client"
	"arrayvers/internal/array"
	"arrayvers/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "avstore: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("avstore", flag.ContinueOnError)
	storeDir := global.String("store", "", "store directory (required)")
	cacheBytes := global.Int64("cache-bytes", 0, "decoded-chunk cache budget in bytes (0 disables)")
	parallelism := global.Int("parallelism", 0, "hot-path worker pool size (0 = GOMAXPROCS, 1 = serial)")
	durable := global.Bool("durable", false, "fsync commits and run crash recovery at open (do not use on a store a live avstored owns)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: avstore -store DIR <create|load|batch|select|versions|info|stats|list|reorganize|tune|verify|fsck|delete-version|drop> [flags]")
	}
	cmd, cmdArgs := rest[0], rest[1:]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	name := fs.String("name", "", "array name")
	file := fs.String("file", "", "array blob file")
	out := fs.String("out", "", "output file (default: print summary)")
	version := fs.Int("version", 0, "version id")
	dims := fs.String("dims", "", "dimensions, e.g. Y:0:255,X:0:255")
	attrs := fs.String("attrs", "", "attributes, e.g. V:float32")
	boxSpec := fs.String("box", "", "region, e.g. 0,0:16,16 (lo:hi, hi exclusive)")
	partsSpec := fs.String("parts", "", "batch: comma-separated array=blobfile pairs committed atomically")
	policy := fs.String("policy", "optimal", "layout policy for reorganize")
	spec := fs.String("spec", "", "tune, reorganize -policy workload: the workload, comma-separated v*weight or lo-hi*weight terms")
	addr := fs.String("addr", "", "avstored base URL (stats, tune, select: talk to a running daemon instead of a store directory)")
	traceFlag := fs.Bool("trace", false, "select: trace the query and print its per-stage breakdown to stderr (with -addr, fetched from the daemon's /debug/traces)")
	if err := fs.Parse(cmdArgs); err != nil {
		return err
	}

	// `stats -addr` / `tune -addr` / `select -addr` ask a running
	// daemon, no store directory needed
	if *addr != "" {
		c := client.New(*addr)
		switch cmd {
		case "select":
			sel := c
			traceID := ""
			if *traceFlag {
				traceID = arrayvers.NewTraceID()
				sel = c.WithTrace(traceID)
			}
			var pl arrayvers.Plane
			var err error
			if *boxSpec != "" {
				box, berr := parseBox(*boxSpec)
				if berr != nil {
					return berr
				}
				pl, err = sel.SelectRegion(*name, *version, box)
			} else {
				pl, err = sel.Select(*name, *version)
			}
			if err != nil {
				return err
			}
			if err := emitPlane(pl, *out); err != nil {
				return err
			}
			if traceID != "" {
				sum, terr := c.Trace(traceID)
				if terr != nil {
					return fmt.Errorf("select succeeded but the trace could not be fetched: %w", terr)
				}
				cliutil.WriteTrace(os.Stderr, sum)
			}
			return nil
		case "stats":
			st, err := c.Stats()
			if err != nil {
				return err
			}
			cliutil.WriteStats(os.Stdout, st)
			return nil
		case "batch":
			batches, err := parseParts(*partsSpec)
			if err != nil {
				return err
			}
			ids, err := c.Write(context.Background(), batches)
			if err != nil {
				return err
			}
			printWriteResult(batches, ids)
			return nil
		case "tune":
			if *name == "" {
				return fmt.Errorf("tune needs -name")
			}
			queries, err := workloadSpec("tune", *spec)
			if err != nil {
				return err
			}
			rep, err := c.Tune(*name, queries)
			if err != nil {
				return err
			}
			printTuneReport(rep)
			return nil
		default:
			return fmt.Errorf("avstore: -addr is only supported by the stats, tune, select, and batch subcommands")
		}
	}
	if *storeDir == "" {
		return fmt.Errorf("avstore: -store is required (or use: avstore stats -addr URL)")
	}
	if cmd == "fsck" {
		*durable = true // fsck is pointless without recovery at open
	}
	opts := cliutil.StoreOptions(*cacheBytes, *parallelism, *durable)
	store, err := arrayvers.Open(*storeDir, opts)
	if err != nil {
		return err
	}
	defer store.Close()
	stopSig := cliutil.CleanupOnSignal(func() { store.Close() })
	defer stopSig()

	switch cmd {
	case "create":
		schema, err := parseSchema(*name, *dims, *attrs)
		if err != nil {
			return err
		}
		if err := store.CreateArray(schema); err != nil {
			return err
		}
		fmt.Printf("created array %s\n", *name)
	case "load":
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		v, err := array.Unmarshal(raw)
		if err != nil {
			return err
		}
		var payload arrayvers.Payload
		switch a := v.(type) {
		case *arrayvers.Dense:
			payload = arrayvers.DensePayload(a)
		case *arrayvers.Sparse:
			payload = arrayvers.SparsePayload(a)
		}
		id, err := store.Insert(*name, payload)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %s@%d\n", *name, id)
	case "batch":
		batches, err := parseParts(*partsSpec)
		if err != nil {
			return err
		}
		ids, err := store.Write(context.Background(), batches)
		if err != nil {
			return err
		}
		printWriteResult(batches, ids)
	case "select":
		ctx := context.Background()
		var tr *arrayvers.Trace
		if *traceFlag {
			tr = arrayvers.NewTrace("avstore-select")
			ctx = arrayvers.TraceContext(ctx, tr)
		}
		q := arrayvers.ReadQuery{Array: *name, IDs: []int{*version}}
		if *boxSpec != "" {
			box, err := parseBox(*boxSpec)
			if err != nil {
				return err
			}
			q.Box = box
		}
		planes, err := store.Read(ctx, q)
		if err != nil {
			return err
		}
		if err := emitPlane(planes[0], *out); err != nil {
			return err
		}
		if tr != nil {
			cliutil.WriteTrace(os.Stderr, tr.Finish())
		}
	case "versions":
		info, err := store.Info(*name)
		if err != nil {
			return err
		}
		for _, vi := range info.Versions {
			bases := "materialized"
			if len(vi.DeltaBases) > 0 {
				bases = fmt.Sprintf("delta vs %v", vi.DeltaBases)
			}
			fmt.Printf("%s@%d  %s  kind=%s  %d bytes  %s\n",
				*name, vi.ID, vi.Time.Format("2006-01-02 15:04:05"), vi.Kind, vi.Bytes, bases)
		}
	case "info":
		info, err := store.Info(*name)
		if err != nil {
			return err
		}
		fmt.Printf("array %s: %d versions, %s on disk, logical %s/version, %d chunks (side %v), sparse=%v\n",
			*name, info.NumVersions, human(info.DiskBytes), human(info.LogicalSize), info.NumChunks, info.ChunkSide, info.SparseRep)
		fmt.Println("store counters (this invocation):")
		cliutil.WriteStats(os.Stdout, store.Stats())
	case "stats":
		// a fresh CLI process has per-process counters: they cover this
		// invocation only; the -addr form reflects a live daemon workload
		fmt.Println("store counters (this invocation; use -addr for a running avstored):")
		cliutil.WriteStats(os.Stdout, store.Stats())
	case "list":
		for _, n := range store.ListArrays() {
			fmt.Println(n)
		}
	case "reorganize":
		p, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		ropts := arrayvers.ReorganizeOptions{Policy: p}
		if p == arrayvers.PolicyWorkloadAware {
			if ropts.Workload, err = workloadSpec("reorganize -policy workload", *spec); err != nil {
				return err
			}
		}
		if err := store.Reorganize(*name, ropts); err != nil {
			return err
		}
		info, _ := store.Info(*name)
		fmt.Printf("reorganized %s with %s layout: %s on disk\n", *name, *policy, human(info.DiskBytes))
	case "tune":
		if *name == "" {
			return fmt.Errorf("tune needs -name")
		}
		queries, err := workloadSpec("tune", *spec)
		if err != nil {
			return err
		}
		rep, err := store.Tune(*name, queries)
		if err != nil {
			return err
		}
		printTuneReport(rep)
	case "delete-version":
		if err := store.DeleteVersion(*name, *version); err != nil {
			return err
		}
		if err := store.Compact(*name); err != nil {
			return err
		}
		fmt.Printf("deleted %s@%d and compacted\n", *name, *version)
	case "verify":
		rep, err := store.Verify(*name)
		if err != nil {
			return err
		}
		fmt.Printf("array %s: %d versions, %d chunk payloads, %s dangling\n",
			rep.Array, rep.Versions, rep.Chunks, human(rep.DanglingBytes))
		maxDepth := 0
		for _, d := range rep.ChainDepths {
			if d > maxDepth {
				maxDepth = d
			}
		}
		fmt.Printf("longest delta chain: %d\n", maxDepth)
		if rep.Ok() {
			fmt.Println("OK")
		} else {
			for _, p := range rep.Problems {
				fmt.Printf("PROBLEM: %s\n", p)
			}
			return fmt.Errorf("%d integrity problem(s)", len(rep.Problems))
		}
	case "fsck":
		// crash recovery already ran when the store opened; report it,
		// then run the deep integrity check (decode every version)
		rec := store.Stats()
		fmt.Printf("recovery: removed %d stale files, truncated %d torn tails (%s), dropped %d unreadable versions\n",
			rec.RecoveryRemovedFiles, rec.RecoveryTruncatedFiles, human(rec.RecoveryTruncatedBytes), rec.RecoveryDroppedVersions)
		problems := 0
		mrep, err := store.VerifyManifest()
		if err != nil {
			return err
		}
		fmt.Printf("manifest: gen %d, snapshot seq %d, %d log record(s) through seq %d, %d array(s), %s torn tail\n",
			mrep.Gen, mrep.SnapshotSeq, mrep.LogRecords, mrep.LastSeq, mrep.Arrays, human(mrep.TornBytes))
		for _, f := range mrep.StrayFiles {
			fmt.Printf("  stray: %s\n", f)
		}
		for _, p := range mrep.Problems {
			fmt.Printf("  PROBLEM: %s\n", p)
			problems++
		}
		names := store.ListArrays()
		if *name != "" {
			names = []string{*name}
		}
		for _, n := range names {
			rep, err := store.Verify(n)
			if err != nil {
				return err
			}
			status := "OK"
			if !rep.Ok() {
				status = fmt.Sprintf("%d PROBLEM(S)", len(rep.Problems))
			}
			fmt.Printf("array %s: %d versions, %d chunk payloads, %s dangling — %s\n",
				n, rep.Versions, rep.Chunks, human(rep.DanglingBytes), status)
			for _, p := range rep.Problems {
				fmt.Printf("  PROBLEM: %s\n", p)
				problems++
			}
		}
		if problems > 0 {
			return fmt.Errorf("fsck: %d integrity problem(s) across %d array(s)", problems, len(names))
		}
		fmt.Printf("fsck: %d array(s) clean\n", len(names))
	case "drop":
		if err := store.DeleteArray(*name); err != nil {
			return err
		}
		fmt.Printf("dropped array %s\n", *name)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// parseParts parses the batch -parts syntax: comma-separated
// array=blobfile pairs, each blob loaded the same way as the load
// subcommand. One array may appear once.
func parseParts(spec string) ([]arrayvers.MultiInsert, error) {
	if spec == "" {
		return nil, fmt.Errorf("batch needs -parts array=blobfile[,array=blobfile...]")
	}
	var out []arrayvers.MultiInsert
	for _, term := range strings.Split(spec, ",") {
		name, file, ok := strings.Cut(term, "=")
		if !ok || name == "" || file == "" {
			return nil, fmt.Errorf("bad -parts term %q (want array=blobfile)", term)
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		v, err := array.Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		var payload arrayvers.Payload
		switch a := v.(type) {
		case *arrayvers.Dense:
			payload = arrayvers.DensePayload(a)
		case *arrayvers.Sparse:
			payload = arrayvers.SparsePayload(a)
		}
		out = append(out, arrayvers.MultiInsert{Array: name, Payloads: []arrayvers.Payload{payload}})
	}
	return out, nil
}

func printWriteResult(puts []arrayvers.MultiInsert, ids [][]int) {
	for i, p := range puts {
		for _, id := range ids[i] {
			fmt.Printf("committed %s@%d\n", p.Array, id)
		}
	}
	fmt.Printf("batch: %d array(s) committed atomically\n", len(puts))
}

// emitPlane writes a selected plane to a blob file, or prints its
// one-line summary when no -out was given.
func emitPlane(pl arrayvers.Plane, out string) error {
	if out != "" {
		var blob []byte
		if pl.IsSparse() {
			blob = array.MarshalSparse(pl.Sparse)
		} else {
			blob = array.MarshalDense(pl.Dense)
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", out, len(blob))
	} else if pl.IsSparse() {
		fmt.Printf("sparse %v, %d non-default cells\n", pl.Sparse.Shape(), pl.Sparse.NNZ())
	} else {
		fmt.Printf("dense %v, %d cells, %d bytes\n", pl.Dense.Shape(), pl.Dense.NumCells(), pl.Dense.SizeBytes())
	}
	return nil
}

func parseSchema(name, dims, attrs string) (arrayvers.Schema, error) {
	if name == "" || dims == "" || attrs == "" {
		return arrayvers.Schema{}, fmt.Errorf("create needs -name, -dims and -attrs")
	}
	schema := arrayvers.Schema{Name: name}
	for _, d := range strings.Split(dims, ",") {
		parts := strings.Split(d, ":")
		if len(parts) != 3 {
			return arrayvers.Schema{}, fmt.Errorf("bad dimension %q (want name:lo:hi)", d)
		}
		lo, err1 := strconv.ParseInt(parts[1], 10, 64)
		hi, err2 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil {
			return arrayvers.Schema{}, fmt.Errorf("bad dimension bounds in %q", d)
		}
		schema.Dims = append(schema.Dims, arrayvers.Dimension{Name: parts[0], Lo: lo, Hi: hi})
	}
	for _, a := range strings.Split(attrs, ",") {
		parts := strings.Split(a, ":")
		if len(parts) != 2 {
			return arrayvers.Schema{}, fmt.Errorf("bad attribute %q (want name:type)", a)
		}
		dt, err := array.ParseDataType(parts[1])
		if err != nil {
			return arrayvers.Schema{}, err
		}
		schema.Attrs = append(schema.Attrs, arrayvers.Attribute{Name: parts[0], Type: dt})
	}
	return schema, schema.Validate()
}

// parseWorkloadSpec parses the -spec syntax: comma-separated terms,
// each "v*weight" (a snapshot query of version v) or "lo-hi*weight" (a
// range query over versions lo..hi inclusive); "*weight" defaults to 1.
func parseWorkloadSpec(spec string) ([]arrayvers.Query, error) {
	var out []arrayvers.Query
	for _, term := range strings.Split(spec, ",") {
		weight := 1.0
		vers := term
		if star := strings.LastIndex(term, "*"); star >= 0 {
			w, err := strconv.ParseFloat(term[star+1:], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad workload weight in %q", term)
			}
			weight = w
			vers = term[:star]
		}
		if lo, hi, ok := strings.Cut(vers, "-"); ok {
			l, err1 := strconv.Atoi(lo)
			h, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || l > h {
				return nil, fmt.Errorf("bad workload range in %q", term)
			}
			out = append(out, arrayvers.Range(l, h, weight))
			continue
		}
		v, err := strconv.Atoi(vers)
		if err != nil {
			return nil, fmt.Errorf("bad workload version in %q", term)
		}
		out = append(out, arrayvers.Snapshot(v, weight))
	}
	return out, nil
}

// workloadSpec parses the -spec workload that tune and reorganize
// -policy workload require.
func workloadSpec(cmd, spec string) ([]arrayvers.Query, error) {
	if spec == "" {
		return nil, fmt.Errorf("%s needs -spec (comma-separated v*weight or lo-hi*weight terms)", cmd)
	}
	return parseWorkloadSpec(spec)
}

func printTuneReport(rep arrayvers.TuneReport) {
	fmt.Printf("array %s: %d workload queries\n", rep.Array, rep.Queries)
	if rep.CurrentCost > 0 {
		fmt.Printf("workload I/O cost: current %.0f, workload-aware %.0f (%.1f%% savings, threshold %.1f%%)\n",
			rep.CurrentCost, rep.ProjectedCost, rep.Savings*100, rep.MinSavings*100)
	}
	if rep.Reorganized {
		fmt.Println("reorganized with the workload-aware layout")
	} else {
		fmt.Printf("not reorganized: %s\n", rep.Reason)
	}
}

// parseBox and parsePolicy delegate to the shared cliutil forms, which
// the server's query parameters use too.
func parseBox(spec string) (arrayvers.Box, error) { return cliutil.ParseBox(spec) }

func parsePolicy(s string) (arrayvers.LayoutPolicy, error) { return cliutil.ParsePolicy(s) }

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
