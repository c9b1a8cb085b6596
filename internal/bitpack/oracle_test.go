package bitpack

// The scalar reference decoders: the Reader, one value per step —
// deliberately the simplest correct implementation. They are the oracle
// the differential harness (kernels_test.go, FuzzKernels) drives the
// batched kernel against; callers validate the request with checkUnpack
// first, exactly as the public entry points do.

func scalarUnpackUnsigned(buf []byte, n, width int, out []uint64) error {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return nil
	}
	r := NewReader(buf)
	for i := 0; i < n; i++ {
		u, err := r.Read(width)
		if err != nil {
			return err
		}
		out[i] = u
	}
	return nil
}

func scalarUnpackSigned(buf []byte, n, width int, out []int64) error {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return nil
	}
	r := NewReader(buf)
	for i := 0; i < n; i++ {
		u, err := r.Read(width)
		if err != nil {
			return err
		}
		out[i] = Unzigzag(u)
	}
	return nil
}

// scalarUnsigned is UnpackUnsigned through the scalar reference.
func scalarUnsigned(buf []byte, n, width int) ([]uint64, error) {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	if err := scalarUnpackUnsigned(buf, n, width, out); err != nil {
		return nil, err
	}
	return out, nil
}

// scalarSigned is UnpackSigned through the scalar reference.
func scalarSigned(buf []byte, n, width int) ([]int64, error) {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	if err := scalarUnpackSigned(buf, n, width, out); err != nil {
		return nil, err
	}
	return out, nil
}
