package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"arrayvers"
)

// Everything a workload sends is generated here from the seed: a smooth
// int32 field and, per version, small-magnitude updates to about 3 % of
// the cells in a few drifting patches — the shape of data the paper's
// delta encodings are built for. The benchmark does not use the repo's
// own dataset or workload packages, so later changes may rewrite those.

const (
	updateShare = 0.03 // share of cells one version changes
	patchCount  = 64   // many small patches: every chunk gets its share, whatever the seed
	patchDrift  = 4    // cells a patch may move per version, each axis
	updateRange = 30   // an update adds a value in [-updateRange, updateRange]
)

// series is a run of versions of one square int32 array, with the CRC of
// every version and of every query box cut from it.
type series struct {
	side   int
	planes []*arrayvers.Dense
	crc    []uint32
	boxCRC [][]uint32 // [version][box]
}

// genSeries makes count versions. Every epochLen-th version starts from a
// fresh field, which the store materializes instead of delta-encoding, so
// delta chains stay at most epochLen long; epochLen 0 keeps one chain.
func genSeries(rng *rand.Rand, side, count, epochLen int, boxes []arrayvers.Box) *series {
	s := &series{side: side}
	var cells []int32
	patch := int(math.Sqrt(updateShare * float64(side*side) / patchCount))
	px, py := make([]int, patchCount), make([]int, patchCount)
	for k := 0; k < count; k++ {
		if k == 0 || (epochLen > 0 && k%epochLen == 0) {
			cells = smoothField(rng, side)
			for p := range px {
				px[p], py[p] = rng.Intn(side-patch), rng.Intn(side-patch)
			}
		} else {
			for p := range px {
				px[p] = clamp(px[p]+rng.Intn(2*patchDrift+1)-patchDrift, 0, side-patch)
				py[p] = clamp(py[p]+rng.Intn(2*patchDrift+1)-patchDrift, 0, side-patch)
				for y := py[p]; y < py[p]+patch; y++ {
					for x := px[p]; x < px[p]+patch; x++ {
						cells[y*side+x] += int32(rng.Intn(2*updateRange+1) - updateRange)
					}
				}
			}
		}
		d := toDense(cells, side)
		s.planes = append(s.planes, d)
		s.crc = append(s.crc, crc32.ChecksumIEEE(d.Bytes()))
		bc := make([]uint32, len(boxes))
		for i, b := range boxes {
			bc[i] = boxChecksum(d, side, b)
		}
		s.boxCRC = append(s.boxCRC, bc)
	}
	return s
}

// smoothField is two low-frequency waves plus a little noise. The waves
// span most of the int32 range, so two fields of different phase differ by
// 31-32 bits almost everywhere: a delta between them is no smaller than
// the plain version, and the store materializes.
func smoothField(rng *rand.Rand, side int) []int32 {
	fx, fy := 1+3*rng.Float64(), 1+3*rng.Float64()
	gx, gy := 1+3*rng.Float64(), 1+3*rng.Float64()
	phase := 2 * math.Pi * rng.Float64()
	cells := make([]int32, side*side)
	sx := make([]float64, side)
	tx := make([]float64, side)
	for x := range sx {
		u := 2 * math.Pi * float64(x) / float64(side)
		sx[x], tx[x] = math.Sin(fx*u+phase), math.Cos(gx*u)
	}
	for y := 0; y < side; y++ {
		u := 2 * math.Pi * float64(y) / float64(side)
		cy, sy := math.Cos(fy*u), math.Sin(gy*u+phase)
		for x := 0; x < side; x++ {
			cells[y*side+x] = int32(8e8*sx[x]*cy+2.4e8*tx[x]*sy) + int32(rng.Intn(8))
		}
	}
	return cells
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func toDense(cells []int32, side int) *arrayvers.Dense {
	d, err := arrayvers.NewDense(arrayvers.Int32, []int64{int64(side), int64(side)})
	if err != nil {
		panic(err) // a fixed valid shape cannot fail
	}
	b := d.Bytes()
	for i, v := range cells {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return d
}

// boxChecksum is the CRC of the row-major bytes of box b of a side×side
// int32 plane, which is what SelectRegion must return for it.
func boxChecksum(d *arrayvers.Dense, side int, b arrayvers.Box) uint32 {
	data := d.Bytes()
	var crc uint32
	for y := b.Lo[0]; y < b.Hi[0]; y++ {
		row := data[4*(y*int64(side)+b.Lo[1]) : 4*(y*int64(side)+b.Hi[1])]
		crc = crc32.Update(crc, crc32.IEEETable, row)
	}
	return crc
}

func genBoxes(rng *rand.Rand, side, boxSide, n int) []arrayvers.Box {
	boxes := make([]arrayvers.Box, n)
	for i := range boxes {
		y, x := int64(rng.Intn(side-boxSide+1)), int64(rng.Intn(side-boxSide+1))
		boxes[i] = arrayvers.NewBox([]int64{y, x}, []int64{y + int64(boxSide), x + int64(boxSide)})
	}
	return boxes
}

type opKind uint8

const (
	opSelect opKind = iota
	opRegion
	opInsert
	opBatch
	numOpKinds
)

var opNames = [numOpKinds]string{"select", "region", "insert", "batch"}

// op is one client call. The list for a (workload, seed) is fixed before
// the clock starts; the clients take ops from it in order.
type op struct {
	kind opKind
	// version is a version ID on the read-only workloads. On mixed-rate,
	// where the head moves, it is a recency rank (0 = newest acked).
	version int
	box     int           // index into generated.boxes
	pay     []int         // versions of the pool sent to the primary array
	payB    []int         // versions of poolB sent to the second array (batch)
	due     time.Duration // open loop: when the op is due, from the start
}

// workload is the fixed shape of one of the four named workloads.
type workload struct {
	name      string
	array     string // primary array
	arrayB    string // second array of InsertMulti ("" when unused)
	side      int
	versions  int   // fixture versions of the primary array
	boxSide   int   // side of SelectRegion boxes
	cacheFlag int64 // -cache-bytes; 0 leaves the daemon's default
	rate      float64
	// primary and secondary are the op kinds behind primary_p50_ms and
	// secondary_p50_ms.
	primary, secondary opKind
	warmAll            bool // warm-up selects every fixture version
	listLen            int  // closed loop: ops generated (cycled if the run outlasts them)
	// sizeAt is the op after which stored_bytes_per_user_byte is read: a
	// fixed point of the list, so that the versions stored by then do
	// not depend on how fast the pass went.
	sizeAt             int
	poolLen, poolEpoch int // inserted versions: pool size and keyframe period
}

const (
	chunkBytes   = 256 << 10 // every array is created with this chunk size
	numBoxes     = 32        // enough that the mix of 1-, 2- and 4-chunk boxes is the same for every seed
	zipfS        = 1.2
	mixedRate    = 50.0 // mixed-rate ops/s
	batchEvery   = 8    // ingest-durable: every 8th op is an InsertMulti
	batchPerSide = 2    // payloads per array in one InsertMulti
	poolBLen     = 16
	poolBEpoch   = 8
)

var workloads = []*workload{
	{
		// uniform reads over a 32-version delta chain 9x larger than the cache: chunk read, unpack and delta apply dominate
		name:  "chain-cold",
		array: "chain", side: 768, versions: 32, boxSide: 256, cacheFlag: 8 << 20,
		primary: opSelect, secondary: opRegion, listLen: 2048, sizeAt: 128,
	},
	{
		// zipf-recent reads of 48 versions that all fit the cache: client, HTTP, wire and the reply copy are the whole cost
		name:  "head-warm",
		array: "head", side: 512, versions: 48, boxSide: 128,
		primary: opSelect, secondary: opRegion, warmAll: true, listLen: 8192, sizeAt: 1024,
	},
	{
		// two writers, write-only, one contended array plus cross-array batches: encode, fsync, manifest append, group commit
		name:  "ingest-durable",
		array: "ingest", arrayB: "ingest_b", side: 512, versions: 16, boxSide: 128,
		primary: opInsert, secondary: opBatch, listLen: 1024, sizeAt: 120,
		poolLen: 64, poolEpoch: 16,
	},
	{
		// open loop at a fixed rate, 85% zipf-recent reads beside 15% durable inserts into the same array: interference, not capacity
		name:  "mixed-rate",
		array: "mixed", side: 512, versions: 16, boxSide: 128, rate: mixedRate,
		primary: opSelect, secondary: opInsert, warmAll: true, sizeAt: -1,
		poolLen: 48, poolEpoch: 16,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generated is everything one (workload, seed, seconds) run sends and
// expects back.
type generated struct {
	boxes    []arrayvers.Box
	fixture  *series // initial versions of the primary array
	fixtureB *series // one initial version of the second array
	pool     *series // versions inserted into the primary array, cyclic
	poolB    *series // versions inserted into the second array, cyclic
	ops      []op
}

// seedFor gives each workload and each use its own stream of the seed.
func seedFor(w *workload, seed int64, use string) int64 {
	return seed*1_000_003 + int64(crc32.ChecksumIEEE([]byte(w.name+"/"+use)))
}

// generate builds the inputs of a run.
func generate(w *workload, seed int64, seconds float64) *generated {
	rng := rand.New(rand.NewSource(seedFor(w, seed, "data")))
	g := &generated{boxes: genBoxes(rng, w.side, w.boxSide, numBoxes)}
	g.fixture = genSeries(rng, w.side, w.versions, 0, g.boxes)
	if w.poolLen > 0 {
		g.pool = genSeries(rng, w.side, w.poolLen, w.poolEpoch, g.boxes)
	}
	if w.arrayB != "" {
		g.fixtureB = genSeries(rng, w.side, 1, 0, g.boxes)
		g.poolB = genSeries(rng, w.side, poolBLen, poolBEpoch, g.boxes)
	}
	g.ops = genOps(w, seed, seconds)
	return g
}

// genOps builds the op list. seconds only matters to the open-loop
// workload, whose list covers exactly that long at the fixed rate; a
// shorter list is a prefix of a longer one.
func genOps(w *workload, seed int64, seconds float64) []op {
	rng := rand.New(rand.NewSource(seedFor(w, seed, "ops")))
	switch w.name {
	case "chain-cold":
		return genReads(rng, w, 0.70, func() int { return 1 + rng.Intn(w.versions) })
	case "head-warm":
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.versions-1))
		return genReads(rng, w, 0.65, func() int { return w.versions - int(zipf.Uint64()) })
	case "ingest-durable":
		return genIngest(w)
	default:
		return genMixed(rng, w, seconds)
	}
}

func genReads(rng *rand.Rand, w *workload, selectShare float64, version func() int) []op {
	ops := make([]op, w.listLen)
	for i := range ops {
		ops[i] = op{kind: opRegion, version: version(), box: rng.Intn(numBoxes)}
		if rng.Float64() < selectShare {
			ops[i].kind = opSelect
		}
	}
	return ops
}

// genIngest walks both pools in order, so the stored version sequence is
// the generated one up to the reordering of ops in flight together.
func genIngest(w *workload) []op {
	ops := make([]op, w.listLen)
	next, nextB := 0, 0
	take := func(cursor *int, n, mod int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = *cursor % mod
			*cursor++
		}
		return out
	}
	for i := range ops {
		if i%batchEvery == batchEvery-1 {
			ops[i] = op{kind: opBatch, pay: take(&next, batchPerSide, w.poolLen), payB: take(&nextB, batchPerSide, poolBLen)}
		} else {
			ops[i] = op{kind: opInsert, pay: take(&next, 1, w.poolLen)}
		}
	}
	return ops
}

// genMixed schedules ops with exponential gaps at the fixed rate.
func genMixed(rng *rand.Rand, w *workload, seconds float64) []op {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.versions-1))
	window := time.Duration(seconds * float64(time.Second))
	var ops []op
	next := 0
	for due := time.Duration(0); ; {
		due += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if due >= window {
			break
		}
		o := op{due: due, version: int(zipf.Uint64()), box: rng.Intn(numBoxes)}
		switch u := rng.Float64(); {
		case u < 0.60:
			o.kind = opSelect
		case u < 0.85:
			o.kind = opRegion
		default:
			o.kind = opInsert
			o.pay = []int{next % w.poolLen}
			next++
		}
		ops = append(ops, o)
	}
	return ops
}
