package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"arrayvers"
)

// Leaf probes time each layer's public functions on the workload's own
// versions, outside any request. They say what a layer costs alone; the
// traced pass says how much of a request it is.

// timeIt runs fn until budget has passed (at least three times) and
// returns the median time of one call.
func timeIt(budget time.Duration, fn func() error) (time.Duration, error) {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

const probeBudget = 60 * time.Millisecond

func mbPerS(bytes int64, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// probeLayers measures wire, chunk, delta, bitpack, cache, fsio, matmat
// and layout. dir is a scratch directory on the benchmark's filesystem;
// mapFile is a file of a store to map.
func probeLayers(g *generated, dir, mapFile string) (map[string]float64, error) {
	planes := g.fixture.planes
	if len(planes) < 2 {
		return nil, errors.New("probes need two fixture versions")
	}
	base, target := planes[len(planes)-2], planes[len(planes)-1]
	size := target.SizeBytes()
	m := make(map[string]float64)
	// timed is timeIt that remembers the first error, so that the probes
	// below read as a list; after an error nothing more is run
	var err error
	timed := func(budget time.Duration, fn func() error) time.Duration {
		if err != nil {
			return time.Nanosecond
		}
		var d time.Duration
		d, err = timeIt(budget, fn)
		return d
	}

	// wire: the reply and request codecs on a whole version
	var frame bytes.Buffer
	m["wire.write_plane_mb_s"] = mbPerS(size, timed(probeBudget, func() error {
		frame.Reset()
		return pinWritePlane(&frame, arrayvers.Plane{Dense: target})
	}))
	m["wire.read_plane_mb_s"] = mbPerS(size, timed(probeBudget, func() error {
		_, err := pinReadPlane(bytes.NewReader(frame.Bytes()))
		return err
	}))
	var blob []byte
	m["wire.encode_payload_mb_s"] = mbPerS(size, timed(probeBudget, func() (err error) {
		blob, err = pinEncodePayload(arrayvers.DensePayload(target))
		return err
	}))
	m["wire.decode_payload_mb_s"] = mbPerS(size, timed(probeBudget, func() error {
		_, err := pinDecodePayload(blob)
		return err
	}))

	// chunk: cut a version into chunks and put it together again
	ck, cerr := pinChunker(g.fixture.side)
	if cerr != nil {
		return nil, cerr
	}
	origins := ck.origins()
	parts := make([]*arrayvers.Dense, len(origins))
	baseParts := make([]*arrayvers.Dense, len(origins))
	// (the delta probe needs the base's chunks too: two versions per call)
	m["chunk.extract_mb_s"] = mbPerS(size, timed(probeBudget, func() (err error) {
		for i, o := range origins {
			if parts[i], err = ck.extract(target, o); err != nil {
				return err
			}
			if baseParts[i], err = ck.extract(base, o); err != nil {
				return err
			}
		}
		return nil
	})/2)
	whole, werr := arrayvers.NewDense(arrayvers.Int32, target.Shape())
	if werr != nil {
		return nil, werr
	}
	m["chunk.assemble_mb_s"] = mbPerS(size, timed(probeBudget, func() error {
		for i, o := range origins {
			if err := ck.assemble(whole, o, parts[i]); err != nil {
				return err
			}
		}
		return nil
	}))
	if err == nil && !bytes.Equal(whole.Bytes(), target.Bytes()) {
		err = errors.New("chunk probe: assembled version differs")
	}

	// delta: consecutive versions, chunk by chunk, as insert and select do
	blobs := make([][]byte, len(origins))
	m["delta.encode_mb_s"] = mbPerS(size, timed(probeBudget, func() (err error) {
		for i := range origins {
			if blobs[i], err = pinDeltaEncode(parts[i], baseParts[i]); err != nil {
				return err
			}
		}
		return nil
	}))
	m["delta.apply_mb_s"] = mbPerS(size, timed(probeBudget, func() error {
		for i := range origins {
			got, err := pinDeltaApply(blobs[i], baseParts[i])
			if err != nil {
				return err
			}
			if !bytes.Equal(got.Bytes(), parts[i].Bytes()) {
				return errors.New("delta probe: applied chunk differs")
			}
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}

	// bitpack: one chunk's cell differences at the width they need
	diffs, width := cellDiffs(parts[0], baseParts[0])
	mcells := func(d time.Duration) float64 { return float64(len(diffs)) / 1e6 / d.Seconds() }
	var packed []byte
	m["bitpack.pack_mcells_s"] = mcells(timed(probeBudget, func() error {
		packed = pinPackSigned(diffs, width)
		return nil
	}))
	m["bitpack.unpack_mcells_s"] = mcells(timed(probeBudget, func() error {
		got, err := pinUnpackSigned(packed, len(diffs), width)
		if err == nil && (len(got) != len(diffs) || got[len(got)/2] != diffs[len(diffs)/2]) {
			err = errors.New("bitpack probe: unpacked cells differ")
		}
		return err
	}))

	// cache: chunk-sized values into a cache that holds them all
	const entries = 64
	cc := pinCache(16 * entries * parts[0].SizeBytes())
	m["cache.put_ns"] = float64(timed(probeBudget, func() error {
		for k := 0; k < entries; k++ {
			if !cc.put(k, parts[0]) {
				return errors.New("cache probe: value not admitted")
			}
		}
		return nil
	}).Nanoseconds()) / entries
	m["cache.get_ns"] = float64(timed(probeBudget, func() error {
		for k := 0; k < entries; k++ {
			if !cc.get(k) {
				return errors.New("cache probe: value not found")
			}
		}
		return nil
	}).Nanoseconds()) / entries

	// fsio: a mapping of a store file, and a synced chunk-sized write
	m["fsio.map_us"] = float64(timed(probeBudget, func() error {
		n, err := pinMap(mapFile)
		if err == nil && n == 0 {
			err = fmt.Errorf("fsio probe: %s mapped empty", mapFile)
		}
		return err
	}).Nanoseconds()) / 1e3
	if err != nil {
		return nil, err
	}
	var syncs []float64
	path := filepath.Join(dir, "probe.sync")
	for k := 0; k < 24; k++ {
		sd, err := pinWriteSync(path, parts[0].Bytes())
		if err != nil {
			return nil, err
		}
		syncs = append(syncs, float64(sd.Nanoseconds())/1e6)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	sort.Float64s(syncs)
	m["fsio.sync_ms_p50"] = percentile(syncs, 50)
	m["fsio.sync_ms_max"] = syncs[len(syncs)-1]

	// matmat and layout: what a reorganize computes before it rewrites
	n := len(planes)
	if n > 16 {
		n = 16
	}
	t0 := time.Now()
	mm, err := pinMatmat(planes[:n], matrixSample)
	if err != nil {
		return nil, err
	}
	m["matmat.compute_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	m["layout.algorithm2_us"] = float64(timed(probeBudget/4, func() error {
		if pinAlgorithm2(mm) != n {
			return errors.New("layout probe: layout does not cover the versions")
		}
		return nil
	}).Nanoseconds()) / 1e3
	return m, err
}

// cellDiffs is target − base cell by cell, and the zigzag width the
// largest difference needs.
func cellDiffs(target, base *arrayvers.Dense) ([]int64, int) {
	t, b := target.Bytes(), base.Bytes()
	diffs := make([]int64, len(t)/4)
	var most uint64
	for i := range diffs {
		v := int64(int32(binary.LittleEndian.Uint32(t[4*i:]))) - int64(int32(binary.LittleEndian.Uint32(b[4*i:])))
		diffs[i] = v
		if z := uint64(v<<1) ^ uint64(v>>63); z > most {
			most = z
		}
	}
	width := 1
	for most>>width != 0 {
		width++
	}
	return diffs, width
}

// largestFile finds the biggest regular file under dir: a chunk chain
// file of the store, for the mapping probe.
func largestFile(dir string) (string, error) {
	var best string
	var size int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && info.Size() > size {
			best, size = path, info.Size()
		}
		return err
	})
	if err == nil && best == "" {
		err = fmt.Errorf("no file under %s", dir)
	}
	return best, err
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// ingestReplay inserts the fixture versions one by one into a fresh
// durable embedded store through the counting filesystem: the store's own
// insert time without server or wire, and what one version costs the
// filesystem.
func ingestReplay(dir string, w *workload, g *generated) (map[string]float64, error) {
	fs := pinCountingFS()
	st, err := pinOpen(dir, 0, true, fs)
	if err != nil {
		return nil, err
	}
	if err := st.CreateArray(schema("replay", w.side)); err != nil {
		_ = st.Close()
		return nil, err
	}
	planes := g.fixture.planes
	if len(planes) > 16 {
		planes = planes[:16]
	}
	w0, b0, s0 := fs.writes.Load(), fs.bytes.Load(), fs.syncs.Load()
	var times []float64
	for _, d := range planes {
		t0 := time.Now()
		if _, err := st.Insert("replay", arrayvers.DensePayload(d)); err != nil {
			_ = st.Close()
			return nil, err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	n := float64(len(planes))
	m := map[string]float64{
		"core.insert_p50_ms":      median(times),
		"fsio.writes_per_version": float64(fs.writes.Load()-w0) / n,
		"fsio.bytes_per_version":  float64(fs.bytes.Load()-b0) / n,
		"fsio.syncs_per_version":  float64(fs.syncs.Load()-s0) / n,
	}
	return m, st.Close()
}
