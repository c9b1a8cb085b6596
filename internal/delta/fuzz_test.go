package delta

import (
	"testing"

	"arrayvers/internal/array"
)

func fuzzBase() *array.Dense { return fuzzBaseOf(array.Int32) }

func fuzzBaseOf(dt array.DataType) *array.Dense {
	d := array.MustDense(dt, []int64{8, 8})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, array.TruncateBits(dt, i*13%500-200))
	}
	return d
}

func fuzzSparseBase() *array.Sparse {
	sp := array.MustSparse(array.Int16, []int64{64, 64}, 7)
	for i := int64(0); i < 30; i++ {
		sp.SetBits(i*111%4096, i-15)
	}
	return sp
}

// FuzzApply hurls arbitrary blobs at every delta decoder — the five
// dense Apply methods, the sparse-ops decoder, and the byte-level bsdiff patcher. A hostile blob must come
// back as an error, never a panic or an allocation unmoored from the
// input size; base arrays are never mutated.
func FuzzApply(f *testing.F) {
	base := fuzzBase()
	target := fuzzBase()
	for i := int64(0); i < 12; i++ {
		target.SetBits(i*5, target.Bits(i*5)+1000)
	}
	// seed corpus: one valid blob per method
	for _, m := range []Method{Dense, Sparse, Hybrid, BlockMatch, BSDiff} {
		if blob, err := Encode(m, target, base); err == nil {
			f.Add(blob)
		}
	}
	spBase := fuzzSparseBase()
	spTarget := spBase.Clone()
	spTarget.SetBits(5, 123)
	if blob, err := EncodeSparseOps(spTarget, spBase); err == nil {
		f.Add(blob)
	}
	f.Add(BytesDiff([]byte("old content old content"), []byte("new content, rather longer")))
	f.Add([]byte{byte(Hybrid), 3, 200}) // implausible width
	f.Add([]byte{byte(Sparse), 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 1<<16 {
			return
		}
		base := fuzzBase()
		pristine := base.Clone()
		if out, err := Apply(blob, base); err == nil && out == nil {
			t.Fatal("Apply returned nil array without error")
		}
		if !base.Equal(pristine) {
			t.Fatal("Apply mutated the base array")
		}
		sp := fuzzSparseBase()
		spPristine := sp.Clone()
		_, _ = ApplySparseOps(blob, sp)
		if !sp.Equal(spPristine) {
			t.Fatal("sparse ops mutated the base array")
		}
		_, _ = BytesPatch([]byte("old content old content"), blob)
		_, _ = MethodOf(blob)
	})
}

// FuzzEncode is the differential fuzzer for the encode kernel: a pair
// built by encodePair from the fuzzer's dtype, cell count, change share,
// change kind, seed and base bytes is encoded by Encode and by the scalar
// oracle, which must agree byte for byte on Dense, Sparse and Hybrid and
// on the sampled estimate at samples 0, 16 and 4096; every blob must
// apply back to the target, and EncodeHybridUnder must agree with
// Encode's hybrid blob at every limit checkBounded tries, for every
// dtype, so each lane width's count loop is covered. Cell counts run
// from 1 to 6000, so the 8-byte word walk gets every tail length and
// the estimate both its exact and its sampled path.
func FuzzEncode(f *testing.F) {
	maxInt32 := []byte{0xff, 0xff, 0xff, 0x7f}
	minInt32 := []byte{0x00, 0x00, 0x00, 0x80}
	for i := range fusedDTypes {
		f.Add(byte(i), uint16(1), byte(255), byte(0), int64(i), []byte(nil))      // one cell, changed
		f.Add(byte(i), uint16(13), byte(0), byte(0), int64(i), []byte(nil))       // nothing changed, odd tail
		f.Add(byte(i), uint16(4099), byte(8), byte(1), int64(i), []byte(nil))     // 3 % small changes, sampled estimate
		f.Add(byte(i), uint16(257), byte(255), byte(5), int64(i), []byte(nil))    // every cell at the widest code
		f.Add(byte(i), uint16(100), byte(128), byte(0), int64(i), []byte{0x7f})   // mixed kinds over a constant base
		f.Add(byte(i), uint16(63), byte(255), byte(2), int64(i), []byte{1, 2, 3}) // every cell random
	}
	// MaxInt32 and MinInt32 against each other: wrap-around differences
	int32i := byte(2) // fusedDTypes[2]
	f.Add(int32i, uint16(41), byte(200), byte(3), int64(7), maxInt32)
	f.Add(int32i, uint16(41), byte(200), byte(4), int64(7), minInt32)
	f.Add(int32i, uint16(41), byte(100), byte(0), int64(8), append(maxInt32, minInt32...))

	f.Fuzz(func(t *testing.T, dtRaw byte, cells uint16, share, mode byte, seed int64, raw []byte) {
		if len(raw) > 1<<12 {
			return
		}
		dt := fusedDTypes[int(dtRaw)%len(fusedDTypes)]
		target, base := encodePair(dt, 1+int(cells)%6000, share, mode, seed, raw)
		checkEncode(t, target, base, seed)
	})
}

// FuzzApplyInPlace is the differential fuzzer for the cellwise kernel:
// an arbitrary blob is applied and unapplied in place over a base of the
// blob's own dtype and through the scalar oracle, which must either both
// reject it or produce bit-identical arrays. A rejected blob must leave
// the buffer exactly as it was, so a caller never sees half a delta.
// The overlay seeds run over every dtype.
func FuzzApplyInPlace(f *testing.F) {
	base := fuzzBase()
	target := fuzzBase()
	for i := int64(0); i < 12; i++ {
		target.SetBits(i*5, target.Bits(i*5)+1000)
	}
	for _, m := range []Method{Dense, Hybrid} {
		if blob, err := Encode(m, target, base); err == nil {
			f.Add(blob)
		}
	}
	if blob, err := Encode(Dense, base, base); err == nil {
		f.Add(blob) // width-0 plane
	}
	f.Add([]byte{byte(Hybrid), 3, 200})     // implausible width
	f.Add([]byte{byte(Dense), 3, 65, 0, 0}) // width out of range
	f.Add([]byte{byte(Hybrid), 3, 2, 0xff}) // truncated plane
	if blob, err := Encode(Sparse, target, base); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)-3]) // truncated overlay values
		f.Add(blob[:4])           // truncated overlay index gaps
	}
	if blob, err := Encode(Hybrid, target, base); err == nil {
		f.Add(blob[:len(blob)-1]) // truncated hybrid overlay
	}
	// must reject: duplicate overlay indices (cell 5 three times, then
	// cell 9 twice); both kernels refuse and the buffer stays unchanged
	f.Add([]byte{byte(Sparse), byte(array.Int32), 5, 5, 0, 0, 4, 0, 2, 0x7f, 0x80, 0x01, 6, 8})
	// nonzero plane codes under overlay cells, with a duplicate among
	// them (rejected) and without one (legal)
	plane := make([]byte, 64*4/8)
	for i := range plane {
		plane[i] = 0x35
	}
	hyb := append([]byte{byte(Hybrid), byte(array.Int32), 4}, plane...)
	f.Add(append(hyb, 3, 0, 7, 0, 9, 0x11, 0x55, 3))
	for _, dt := range fusedDTypes {
		// a zero gap at entry 0 is cell 0, and legal
		f.Add([]byte{byte(Sparse), byte(dt), 2, 0, 5, 0x04, 0x7f})
		// a gap of 2^64-1 after cell 3 wraps back to cell 2: rejected
		f.Add([]byte{byte(Sparse), byte(dt), 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 2})
		// ten one-byte entries, one of them a repeated index: rejected
		f.Add([]byte{byte(Sparse), byte(dt), 10, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
		// width-4 plane of nonzero codes under cells 0, 7 and 16
		hyb := append([]byte{byte(Hybrid), byte(dt), 4}, plane...)
		f.Add(append(hyb, 3, 0, 7, 9, 0x11, 0x55, 3))
	}
	// width 64, dense and hybrid, over an 8-byte dtype
	wide := make([]byte, 64*8)
	for i := range wide {
		wide[i] = byte(i*37 + 11)
	}
	f.Add(append([]byte{byte(Dense), byte(array.Int64), 64}, wide...))
	f.Add(append(append([]byte{byte(Hybrid), byte(array.Float64), 64}, wide...), 1, 63, 9))
	// 1-, 2- and 8-byte dtypes through the encoder
	for _, dt := range []array.DataType{array.Int8, array.UInt16, array.Int64} {
		b, tg := fuzzBaseOf(dt), fuzzBaseOf(dt)
		for i := int64(0); i < 64; i += 3 {
			tg.SetBits(i, array.TruncateBits(dt, tg.Bits(i)+i*i-40))
		}
		for _, m := range []Method{Dense, Sparse, Hybrid} {
			if blob, err := Encode(m, tg, b); err == nil {
				f.Add(blob)
			}
		}
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 1<<16 {
			return
		}
		if m, err := MethodOf(blob); err != nil || (m != Dense && m != Sparse && m != Hybrid) {
			return // not cellwise: the oracle has nothing to say
		}
		dt := array.Int32
		if len(blob) > 1 && array.DataType(blob[1]).Valid() {
			dt = array.DataType(blob[1])
		}
		base := fuzzBaseOf(dt)
		want, wantErr := scalarApply(blob, base)
		buf := base.Clone()
		got, err := ApplyInPlace(blob, buf)
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("kernels disagree on error: oracle %v, in-place %v", wantErr, err)
		}
		if err != nil {
			if !buf.Equal(base) {
				t.Fatal("rejected blob modified the buffer")
			}
			return
		}
		if got != buf || !got.Equal(want) {
			t.Fatal("kernels disagree on output")
		}
	})
}
