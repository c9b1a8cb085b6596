// Package workload generates the query workloads of the paper's
// evaluation: the five Table V suites (Head, Random, Range, Mixed,
// Update) and the §V-D overlapping-range workload used for the
// workload-aware layout experiment. Workloads are sequences of abstract
// operations over version IDs; the bench harness executes them against a
// core.Store, and the layout optimizer consumes them as weighted queries.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"arrayvers/internal/layout"
)

// Kind is the type of one workload operation.
type Kind int

// Operation kinds.
const (
	// SelectOne reads one whole version.
	SelectOne Kind = iota
	// SelectRange reads a contiguous run of versions (stacked).
	SelectRange
	// Update commits a new version derived from a random existing one
	// (Table V: "a random modification is made ... each time for a
	// different version chosen uniformly at random").
	Update
)

func (k Kind) String() string {
	switch k {
	case SelectOne:
		return "select"
	case SelectRange:
		return "range"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one workload operation over version IDs 1..N.
type Op struct {
	Kind Kind
	// Versions lists the accessed version IDs (one for SelectOne/Update,
	// a contiguous run for SelectRange).
	Versions []int
}

// Head is Table V's workload (i): "the most recent version is selected
// with 90% probability, and another single random version is selected
// with 10% probability (this is repeated 10 times)".
func Head(n, reps int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, reps)
	for i := range ops {
		v := n
		if rng.Float64() >= 0.9 {
			v = 1 + rng.Intn(n)
		}
		ops[i] = Op{Kind: SelectOne, Versions: []int{v}}
	}
	return ops
}

// Random is workload (ii): "a random single version is selected (this is
// repeated 30 times)".
func Random(n, reps int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, reps)
	for i := range ops {
		ops[i] = Op{Kind: SelectOne, Versions: []int{1 + rng.Intn(n)}}
	}
	return ops
}

// Range is workload (iii): "with 10% probability, a random single matrix
// is selected and with 90% probability, a random range with a standard
// deviation of 10 is selected (this is repeated 30 times)".
func Range(n, reps int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, reps)
	for i := range ops {
		if rng.Float64() < 0.1 {
			ops[i] = Op{Kind: SelectOne, Versions: []int{1 + rng.Intn(n)}}
			continue
		}
		width := int(math.Abs(rng.NormFloat64()) * 10)
		if width < 1 {
			width = 1
		}
		lo := 1 + rng.Intn(n)
		hi := lo + width
		if hi > n {
			// slide the range back inside the version axis
			hi = n
			lo = hi - width
			if lo < 1 {
				lo = 1
			}
		}
		if hi == lo && hi < n {
			hi++
		}
		ops[i] = Op{Kind: SelectRange, Versions: contiguous(lo, hi)}
	}
	return ops
}

// Mixed is workload (iv): "a query is chosen from the three previous
// query types with equal probability (this is repeated 15 times)".
func Mixed(n, reps int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, reps)
	for i := 0; i < reps; i++ {
		var o []Op
		switch rng.Intn(3) {
		case 0:
			o = Head(n, 1, rng.Int63())
		case 1:
			o = Random(n, 1, rng.Int63())
		default:
			o = Range(n, 1, rng.Int63())
		}
		ops = append(ops, o...)
	}
	return ops
}

// Updates is workload (v): reps random modifications, each against a
// different uniformly random version.
func Updates(n, reps int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, reps)
	for i := range ops {
		ops[i] = Op{Kind: Update, Versions: []int{1 + rng.Intn(n)}}
	}
	return ops
}

// Zipfian is the skewed single-version trace used by the Tune
// experiments and tests: version ranks follow a Zipf distribution with
// exponent s (> 1), with the OLDEST version (ID 1) the hottest. Against
// the linear-chain baseline — which materializes the newest version and
// deltas backwards — this is the worst case: the most popular reads
// unwind the longest delta chains, which is exactly the skew a
// workload-aware reorganization should fix.
func Zipfian(n, reps int, s float64, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	ops := make([]Op, reps)
	for i := range ops {
		ops[i] = Op{Kind: SelectOne, Versions: []int{1 + int(z.Uint64())}}
	}
	return ops
}

// SlidingWindow is a deterministic range-read trace whose window of
// `width` consecutive versions slides from the oldest to the newest
// version across the trace — the "analyst scanning history forward"
// pattern. Early ops hit old versions, late ops hit recent ones, so a
// slice of the trace is a workload that drifts as the window moves.
func SlidingWindow(n, reps, width int) []Op {
	if width < 1 {
		width = 1
	}
	if width > n {
		width = n
	}
	maxLo := n - width + 1
	ops := make([]Op, reps)
	for i := range ops {
		lo := 1
		if reps > 1 {
			lo = 1 + (i*(maxLo-1))/(reps-1)
		}
		ops[i] = Op{Kind: SelectRange, Versions: contiguous(lo, lo+width-1)}
	}
	return ops
}

// OverlappingRanges is the §V-D workload-aware experiment: "sets of range
// queries retrieving `width` images each and overlapping by `overlap`
// versions exactly". With width 10 and overlap 4, ranges start every 6
// versions.
func OverlappingRanges(n, width, overlap int) []Op {
	var ops []Op
	step := width - overlap
	if step < 1 {
		step = 1
	}
	for lo := 1; lo <= n-width+1; lo += step {
		ops = append(ops, Op{Kind: SelectRange, Versions: contiguous(lo, lo+width-1)})
	}
	return ops
}

// ToQueries converts a workload into weighted layout queries: each
// distinct read access pattern becomes one query with weight equal to
// its frequency. Updates are ignored (they add versions rather than read
// them).
func ToQueries(ops []Op) []layout.Query {
	counts := map[string]layout.Query{}
	for _, op := range ops {
		if op.Kind == Update {
			continue
		}
		key := fmt.Sprint(op.Versions)
		q := counts[key]
		q.Versions = op.Versions
		q.Weight++
		counts[key] = q
	}
	out := make([]layout.Query, 0, len(counts))
	for _, q := range counts {
		out = append(out, q)
	}
	return out
}

func contiguous(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}
