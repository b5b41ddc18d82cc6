// Zero-copy block encoding, little-endian fast path. The disk format is
// little-endian 64-bit words (binary.LittleEndian in the portable path),
// so on a little-endian target the in-memory representation of a []Word
// already *is* its on-disk byte encoding, and a transfer can hand the
// word buffer's bytes straight to the kernel — the codec output bytes are
// the bytes written, with no conversion copy in between.
//
// This file is the single audited unsafe view in the package; the
// big-endian (and otherwise unverified) targets take the checked
// conversion fallback in zerocopy_be.go.

//go:build amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package pdm

import "unsafe"

// zeroCopyWords reports whether []Word buffers may be reinterpreted as
// their little-endian byte encoding without a conversion copy. True
// exactly on the little-endian targets named in the build tag above.
const zeroCopyWords = true

// wordsAsBytes returns the raw bytes of ws, aliasing its backing array.
//
// Safety argument (audited — keep this the only unsafe aliasing site):
//
//  1. Word is uint64: fixed size 8, no padding, alignment 8 ≥ 1, so the
//     element bytes are exactly the slice bytes and 8·len(ws) cannot
//     overflow a slice length that already exists.
//  2. The view is derived from the live slice header on every call and is
//     only ever passed to a read/write syscall or a copy within the same
//     call frame; no caller retains it past the transfer, so the backing
//     array outlives every use (callers also hold ws itself).
//  3. The build tag restricts this file to little-endian targets, where
//     byte i of the view equals byte i of binary.LittleEndian.PutUint64 —
//     the on-disk format — so files written here are readable by the
//     conversion fallback and vice versa.
func wordsAsBytes(ws []Word) []byte {
	if len(ws) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), 8*len(ws))
}
