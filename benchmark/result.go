package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and perLayerUnits name every metric a pass reports, with
// its unit; BENCHMARK.json declares the same names (a test compares them).
var endToEndUnits = map[string]string{
	"setup_s":                    "s",
	"primary_p50_ms":             "ms",
	"secondary_p50_ms":           "ms",
	"ops_s":                      "1/s",
	"server_cpu_ms_per_op":       "ms",
	"stored_bytes_per_user_byte": "ratio",
	"reorganize_s":               "s",
}

var perLayerUnits = map[string]string{
	"client.self_ms_p50": "ms", "client.self_share": "share", "client.retries": "count",
	"server.self_ms_p50": "ms", "server.self_share": "share", "server.rejected_429": "count",
	"wire.write_plane_mb_s": "MiB/s", "wire.read_plane_mb_s": "MiB/s",
	"wire.encode_payload_mb_s": "MiB/s", "wire.decode_payload_mb_s": "MiB/s", "wire.est_share": "share",
	"core.stage_share.other": "share", "core.stage_overlap_share": "share",
	"core.chunks_read_per_select": "count", "core.read_amp": "ratio", "core.mmap_read_share": "share",
	"core.select_cold_p50_ms": "ms", "core.select_warm_p50_ms": "ms",
	"core.group_commit_factor": "ratio", "core.manifest_records_per_append": "ratio",
	"core.manifest_fsyncs_per_version": "ratio", "core.write_amp": "ratio",
	"core.dir_bytes_per_user_byte": "ratio", "core.insert_p50_ms": "ms", "core.open_ms": "ms",
	"cache.hit_ratio": "ratio", "cache.evictions_per_kop": "count", "cache.rejected": "count",
	"cache.get_ns": "ns", "cache.put_ns": "ns",
	"chunk.extract_mb_s": "MiB/s", "chunk.assemble_mb_s": "MiB/s",
	"delta.encode_mb_s": "MiB/s", "delta.apply_mb_s": "MiB/s",
	"bitpack.pack_mcells_s": "Mcells/s", "bitpack.unpack_mcells_s": "Mcells/s",
	"fsio.sync_ms_p50": "ms", "fsio.sync_ms_max": "ms", "fsio.map_us": "us",
	"fsio.syncs_per_version": "count", "fsio.writes_per_version": "count", "fsio.bytes_per_version": "bytes",
	"matmat.compute_ms": "ms", "layout.algorithm2_us": "us",
	"bench.trace_overhead_pct": "%", "bench.gen_late_p99_ms": "ms", "bench.client_cpu_share": "share",
	"trace.unaccounted_share": "share", "trace.missed": "count",
	"diag.failed_ops_share": "share", "diag.select_p50_ms": "ms", "diag.region_p50_ms": "ms",
	"diag.insert_p50_ms": "ms", "diag.batch_p50_ms": "ms", "diag.insert_versions_s": "1/s",
	"diag.reopen_ms": "ms", "diag.rss_peak_mb": "MiB",
}

func init() {
	for _, st := range append(append([]string(nil), readStages...), writeStages...) {
		perLayerUnits["core.stage_ms."+st] = "ms"
		perLayerUnits["core.stage_share."+st] = "share"
	}
}

// opReport is one op kind of one pass: a median, and the highest
// percentile that still has ten samples beyond it, with the counts.
type opReport struct {
	Count          int            `json:"count"`
	Failed         int            `json:"failed"`
	P50Ms          float64        `json:"p50_ms"`
	TailPercentile float64        `json:"tail_percentile,omitempty"`
	TailMs         float64        `json:"tail_ms,omitempty"`
	HistogramMs    map[string]int `json:"histogram_le_ms"`
}

// runResult is one pass of one workload.
type runResult struct {
	Workload    string   `json:"workload"`
	Traced      bool     `json:"traced"`
	DaemonFlags []string `json:"daemon_flags"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	ElapsedS    float64  `json:"elapsed_s"`
	// MeasuredS is the length of the slices the metrics come from;
	// StolenShare is the share of their CPU time the hypervisor took, and
	// StolenShareAll the same over the whole pass.
	MeasuredS      float64                `json:"measured_s"`
	StolenShare    float64                `json:"stolen_share"`
	StolenShareAll float64                `json:"stolen_share_all"`
	Ops            map[string]opReport    `json:"ops"`
	Metrics        map[string]metricValue `json:"metrics"`
}

func opReports(samples []sample) map[string]opReport {
	reports := make(map[string]opReport)
	for k := opKind(0); k < numOpKinds; k++ {
		ms := sortedMs(samples, k)
		if len(ms) == 0 {
			continue
		}
		r := opReport{Count: len(ms), P50Ms: percentile(ms, 50), HistogramMs: histogram(ms)}
		for _, s := range samples {
			if s.kind == k && s.failed {
				r.Failed++
			}
		}
		if p, ok := tailPercentile(len(ms)); ok {
			r.TailPercentile, r.TailMs = p, percentile(ms, p)
		}
		reports[opNames[k]] = r
	}
	return reports
}

func withUnits(values map[string]float64, units map[string]string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	return out, nil
}

// runOnce sets a workload up, runs one pass and takes the store down.
func runOnce(cfg config, w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	listed := seconds
	if !traced {
		listed *= maxStretch // an open-loop list must last a stretched pass
	}
	g := generate(w, seed, listed)
	if traced {
		return runTraced(cfg, w, g, seed, seconds)
	}
	return runUntraced(cfg, w, g, seconds)
}

// runUntraced is the pass behind the end-to-end metrics.
func runUntraced(cfg config, w *workload, g *generated, seconds float64) (*runResult, error) {
	setups := numSetups
	if cfg.smoke {
		setups = 1
	}
	var e *env
	var setupS, reorgS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg, w, g); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		reorgS = append(reorgS, e.reorgS)
	}
	p, err := e.run(g.ops, seconds, nil)
	if err != nil {
		return nil, err
	}
	// every acked version must be there, before and after a restart
	checks, checksFailed := e.verify()
	_, c, f, err := e.reopen(1)
	if err != nil {
		return nil, err
	}
	checks, checksFailed = checks+c, checksFailed+f
	flags := e.d.flags
	if err := e.teardown(); err != nil {
		return nil, err
	}

	attempted, failed := count(p.samples)
	measured := p.measured()
	done, bad := count(measured)
	values := map[string]float64{
		"setup_s":                    median(setupS),
		"primary_p50_ms":             percentile(sortedMs(measured, w.primary), 50),
		"secondary_p50_ms":           percentile(sortedMs(measured, w.secondary), 50),
		"ops_s":                      float64(done-bad) / p.measuredTime().Seconds(),
		"server_cpu_ms_per_op":       float64(p.daemonTicks()) * 1000 / clockTick / float64(done),
		"stored_bytes_per_user_byte": p.stored,
		"reorganize_s":               median(reorgS),
	}
	metrics, err := withUnits(values, endToEndUnits)
	if err != nil {
		return nil, err
	}
	stolen, stolenAll := p.stolenShare()
	return &runResult{
		Workload: w.name, DaemonFlags: flags, ElapsedS: p.elapsed.Seconds(), MeasuredS: p.measuredTime().Seconds(),
		StolenShare: stolen, StolenShareAll: stolenAll,
		Attempted: attempted + checks, Failed: failed + checksFailed, Failures: e.fails,
		Ops: opReports(measured), Metrics: metrics,
	}, nil
}

// runTraced is the pass behind the per-layer metrics: a third of the time
// untraced, then the same op list from its start with every request
// traced, then the embedded replays and the leaf probes.
func runTraced(cfg config, w *workload, g *generated, seed int64, seconds float64) (*runResult, error) {
	e, err := setup(cfg, w, g)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plainOps, tracedOps := g.ops, g.ops
	if w.rate > 0 {
		plainOps, tracedOps = genOps(w, seed, seconds/3), genOps(w, seed, 2*seconds/3)
	}
	plain, err := e.run(plainOps, seconds/3, nil)
	if err != nil {
		return nil, err
	}
	before, err := e.admin().Stats()
	if err != nil {
		return nil, err
	}
	attempts0, calls0 := e.attempts.Load(), e.calls.Load()
	tl := &traceLog{}
	p, err := e.run(tracedOps, 2*seconds/3, tl)
	if err != nil {
		return nil, err
	}
	retries := float64(e.attempts.Load()-attempts0) - float64(e.calls.Load()-calls0)
	after, err := e.admin().Stats()
	if err != nil {
		return nil, err
	}
	rejected, err := e.d.rejected429()
	if err != nil {
		return nil, err
	}
	rss, err := e.d.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	checks, checksFailed := e.verify()
	reopens := numReopens
	if cfg.smoke {
		reopens = 1
	}
	reopenMs, c, f, err := e.reopen(reopens)
	if err != nil {
		return nil, err
	}
	checks, checksFailed = checks+c, checksFailed+f
	reads := e.replayReads(48)
	flags := e.d.flags
	if err := e.stop(); err != nil {
		return nil, err
	}

	// the daemon is gone: everything below runs in this process
	values := map[string]float64{"client.retries": retries, "server.rejected_429": rejected, "diag.reopen_ms": reopenMs, "diag.rss_peak_mb": rss}
	add := func(m map[string]float64) {
		for k, v := range m {
			values[k] = v
		}
	}
	onDisk, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	userBytes := float64(len(e.refs)+len(e.refsB)) * float64(g.fixture.planes[0].SizeBytes())
	values["core.dir_bytes_per_user_byte"] = float64(onDisk) / userBytes
	mapFile, err := largestFile(e.dir)
	if err != nil {
		return nil, err
	}
	replay, replayFailed, err := embeddedReplay(e, reads)
	if err != nil {
		return nil, err
	}
	add(replay)
	checks, checksFailed = checks+2*len(reads), checksFailed+replayFailed
	scratch := e.dir + "-replay"
	trackDir(scratch)
	ingest, err := ingestReplay(scratch, w, g)
	if err != nil {
		return nil, fmt.Errorf("ingest replay: %w", err)
	}
	add(ingest)
	probes, err := probeLayers(g, scratch, mapFile)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	add(probes)
	removeDir(scratch)
	if err := e.teardown(); err != nil {
		return nil, err
	}
	add(requestMetrics(tl, probes))
	add(counterMetrics(before, after, p, tl))
	if err := tl.write(filepath.Join(cfg.out, w.name+".trace.json")); err != nil {
		return nil, err
	}

	attempted, failed := count(p.samples)
	plainP50 := percentile(sortedMs(plain.samples, w.primary), 50)
	values["bench.trace_overhead_pct"] = 100 * ratio(percentile(sortedMs(p.samples, w.primary), 50)-plainP50, plainP50)
	var late []float64
	for _, s := range p.samples {
		late = append(late, float64(s.lateNs)/1e6)
	}
	sort.Float64s(late)
	values["bench.gen_late_p99_ms"] = percentile(late, 99)
	values["bench.client_cpu_share"] = p.benchCPU.Seconds() / (p.elapsed.Seconds() * float64(runtime.NumCPU()))
	// what the untraced third says of each op kind, under the names the
	// issue that defined this benchmark gave them
	plainAttempted, plainFailed := count(plain.samples)
	values["diag.failed_ops_share"] = ratio(float64(failed+plainFailed), float64(attempted+plainAttempted))
	for kind, name := range map[opKind]string{opSelect: "diag.select_p50_ms", opRegion: "diag.region_p50_ms", opInsert: "diag.insert_p50_ms", opBatch: "diag.batch_p50_ms"} {
		values[name] = percentile(sortedMs(plain.samples, kind), 50)
	}
	values["diag.insert_versions_s"] = float64(plain.versions) / plain.elapsed.Seconds()

	metrics, err := withUnits(values, perLayerUnits)
	if err != nil {
		return nil, err
	}
	_, stolenAll := p.stolenShare()
	return &runResult{
		Workload: w.name, Traced: true, DaemonFlags: flags, ElapsedS: p.elapsed.Seconds(), MeasuredS: p.elapsed.Seconds(),
		StolenShare: stolenAll, StolenShareAll: stolenAll,
		Attempted: attempted + plainAttempted + checks, Failed: failed + plainFailed + checksFailed, Failures: e.fails,
		Ops: opReports(p.samples), Metrics: metrics,
	}, nil
}

// print writes every metric by name with its unit, and the op table.
func (r *runResult) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d attempted, %d failed, %.1fs of a %.1fs pass measured (%.1f%% of their CPU time stolen, %.1f%% of the pass's), avstored %s\n",
		r.Workload, pass, r.Attempted, r.Failed, r.MeasuredS, r.ElapsedS, 100*r.StolenShare, 100*r.StolenShareAll, strings.Join(r.DaemonFlags[2:], " "))
	for _, name := range sortedKeys(r.Ops) {
		o := r.Ops[name]
		fmt.Fprintf(w, "   op %-10s n=%-6d failed=%-3d p50=%.3fms", name, o.Count, o.Failed, o.P50Ms)
		if o.TailPercentile > 0 {
			fmt.Fprintf(w, " p%g=%.3fms", o.TailPercentile, o.TailMs)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// summary is the one-line form the benchmark contract asks for.
func (r *runResult) summary() map[string]any {
	return map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// report is result.json.
type report struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Smoke       bool              `json:"smoke,omitempty"`
	Runs        []*runResult      `json:"runs"`
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fingerprint says what machine the numbers are from.
func fingerprint(dir string) map[string]string {
	fp := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(raw))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err == nil {
		fp["fs_type"] = fsName(int64(fs.Type))
	}
	return fp
}

func fsName(magic int64) string {
	names := map[int64]string{0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs"}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", magic)
}
