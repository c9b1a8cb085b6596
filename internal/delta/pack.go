package delta

import "arrayvers/internal/bitpack"

// thin aliases over the bitpack substrate, keeping call sites terse.

func signedWidth(v int64) int { return bitpack.SignedWidth(v) }

func packSigned(vs []int64, width int) []byte { return bitpack.PackSigned(vs, width) }
