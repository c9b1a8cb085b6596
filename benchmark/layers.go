package main

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"arrayvers"
)

// The store's pipeline stages, as the server's traces name them.
var (
	readStages  = []string{"snapshot", "cache", "read", "decode", "delta", "materialize"}
	writeStages = []string{"stage_encode", "queue_wait", "data_fsync", "meta_commit", "install"}
)

func isRead(k opKind) bool  { return k == opSelect || k == opRegion }
func isWrite(k opKind) bool { return k == opInsert || k == opBatch }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// requestMetrics turns the traced pass into the per-request layer
// numbers: self times and shares of client and server, the store stages,
// and the estimate of the wire codec's part. probes supplies the codec
// throughputs.
func requestMetrics(tl *traceLog, probes map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	var sum shareSum
	var clientSelf, serverSelf []float64
	stageNs := make(map[string]float64)
	var reads, writes, wireNs float64
	for _, sp := range tl.spans {
		if !sp.fetched {
			continue
		}
		r := request{clientNs: sp.end.Sub(sp.start).Nanoseconds(), serverNs: sp.server.DurationNs, stages: make(map[string]int64)}
		for _, st := range sp.server.Stages {
			r.stages[st.Stage] += st.Nanos
			stageNs[st.Stage] += float64(st.Nanos)
		}
		cs, ss := sum.add(r)
		clientSelf = append(clientSelf, cs/1e6)
		serverSelf = append(serverSelf, ss/1e6)
		mb := float64(sp.bytes) / (1 << 20)
		if isRead(sp.kind) {
			reads++
			wireNs += 1e9 * (ratio(mb, probes["wire.write_plane_mb_s"]) + ratio(mb, probes["wire.read_plane_mb_s"]))
		} else {
			writes++
			wireNs += 1e9 * (ratio(mb, probes["wire.encode_payload_mb_s"]) + ratio(mb, probes["wire.decode_payload_mb_s"]))
		}
	}
	clientShare, serverShare, stageShare := sum.shares()
	m["client.self_ms_p50"] = median(clientSelf)
	m["client.self_share"] = clientShare
	m["server.self_ms_p50"] = median(serverSelf)
	m["server.self_share"] = serverShare
	for _, st := range readStages {
		m["core.stage_ms."+st] = ratio(stageNs[st], reads) / 1e6
		m["core.stage_share."+st] = stageShare[st]
	}
	for _, st := range writeStages {
		m["core.stage_ms."+st] = ratio(stageNs[st], writes) / 1e6
		m["core.stage_share."+st] = stageShare[st]
	}
	// a stage the lists above do not know still belongs to the sum of shares
	other := 0.0
	for st, share := range stageShare {
		if _, known := perLayerUnits["core.stage_share."+st]; !known {
			other += share
		}
	}
	m["core.stage_share.other"] = other
	m["core.stage_overlap_share"] = ratio(sum.overlapNs, sum.stageRawNs)
	m["wire.est_share"] = ratio(wireNs, sum.totalNs)
	m["trace.unaccounted_share"] = unaccountedShare(clientShare, serverShare, m["wire.est_share"])
	m["trace.missed"] = float64(tl.missed)
	return m
}

// counterMetrics are ratios of the daemon's own counters over the traced
// pass (/v1/stats before and after it).
func counterMetrics(a, b arrayvers.IOStats, p *pass, tl *traceLog) map[string]float64 {
	var reads, userBytesRead, userBytesWritten float64
	for _, sp := range tl.spans {
		switch {
		case isRead(sp.kind):
			reads++
			userBytesRead += float64(sp.bytes)
		case isWrite(sp.kind):
			userBytesWritten += float64(sp.bytes)
		}
	}
	ops := float64(len(p.samples))
	d := func(x, y int64) float64 { return float64(y - x) }
	hits, misses := d(a.CacheHits, b.CacheHits), d(a.CacheMisses, b.CacheMisses)
	return map[string]float64{
		"cache.hit_ratio":                  ratio(hits, hits+misses),
		"cache.evictions_per_kop":          ratio(1000*d(a.CacheEvictions, b.CacheEvictions), ops),
		"cache.rejected":                   d(a.CacheRejected, b.CacheRejected),
		"core.chunks_read_per_select":      ratio(d(a.ChunksRead, b.ChunksRead), reads),
		"core.read_amp":                    ratio(d(a.BytesRead, b.BytesRead), userBytesRead),
		"core.mmap_read_share":             ratio(d(a.MmapReads, b.MmapReads), d(a.ChunksRead, b.ChunksRead)),
		"core.write_amp":                   ratio(d(a.BytesWritten, b.BytesWritten), userBytesWritten),
		"core.group_commit_factor":         ratio(d(a.GroupCommitVersions, b.GroupCommitVersions), d(a.GroupCommits, b.GroupCommits)),
		"core.manifest_records_per_append": ratio(d(a.ManifestRecords, b.ManifestRecords), d(a.ManifestAppends, b.ManifestAppends)),
		"core.manifest_fsyncs_per_version": ratio(d(a.ManifestFsyncs, b.ManifestFsyncs), float64(p.versions)),
	}
}

// readReplay is one read of the embedded replay.
type readReplay struct {
	ref versionRef
	box int // -1 reads the whole version
}

// replayReads picks the reads to repeat against the embedded store: the
// first read ops of the list, or, on a workload that only writes, whole
// versions spread evenly over what it wrote.
func (e *env) replayReads(n int) []readReplay {
	var out []readReplay
	for i := range e.g.ops {
		o := &e.g.ops[i]
		if len(out) == n {
			break
		}
		switch o.kind {
		case opSelect:
			out = append(out, readReplay{e.target(o), -1})
		case opRegion:
			out = append(out, readReplay{e.target(o), o.box})
		}
	}
	if len(out) == 0 {
		refs := append([]versionRef(nil), e.refs...)
		sort.Slice(refs, func(i, j int) bool { return refs[i].id < refs[j].id })
		step := len(refs)/n + 1
		for i := 0; i < len(refs); i += step {
			out = append(out, readReplay{refs[i], -1})
		}
	}
	return out
}

// embeddedReplay opens the store the daemon left behind, durable and with
// the workload's cache size, and runs the reads twice: the first pass
// finds the cache empty, the second finds what the first left in it.
func embeddedReplay(e *env, reads []readReplay) (m map[string]float64, failed int, err error) {
	cacheBytes := e.w.cacheFlag
	if cacheBytes == 0 {
		cacheBytes = arrayvers.DefaultCacheBytes
	}
	t0 := time.Now()
	st, err := pinOpen(e.dir, cacheBytes, true, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("embedded open: %w", err)
	}
	m = map[string]float64{"core.open_ms": float64(time.Since(t0).Nanoseconds()) / 1e6}
	for _, name := range []string{"core.select_cold_p50_ms", "core.select_warm_p50_ms"} {
		var times []float64
		for _, r := range reads {
			t0 := time.Now()
			var pl arrayvers.Plane
			want := r.ref.crc
			if r.box < 0 {
				pl, err = st.Select(r.ref.array, r.ref.id)
			} else {
				pl, err = st.SelectRegion(r.ref.array, r.ref.id, e.g.boxes[r.box])
				want = r.ref.boxCRC[r.box]
			}
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil || pl.Dense == nil || crc32.ChecksumIEEE(pl.Dense.Bytes()) != want {
				failed++
				e.failf("embedded read %s@%d: wrong bytes (err %v)", r.ref.array, r.ref.id, err)
			}
		}
		m[name] = median(times)
	}
	return m, failed, st.Close()
}
