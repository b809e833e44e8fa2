package index

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// This file is the package's only use of unsafe: a list read lands in
// the caller's []Posting, and a directory or zone map read in its
// resident column, through a byte view of it, so each is copied once,
// from the page cache into its place in memory.

// A Posting is four uint32s with no padding, the 16 bytes of its
// on-disk form; the byte view relies on it.
var _ [postingSize - unsafe.Sizeof(Posting{})]struct{}
var _ [unsafe.Sizeof(Posting{}) - postingSize]struct{}

// hostLittleEndian reports whether the in-memory bytes of a Posting or
// a column entry are its on-disk (little-endian) bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf views s, postings or a resident column, as the bytes that
// hold it.
func bytesOf[T Posting | uint32 | uint64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapPostings reverses the bytes of every field of ps in place: on a
// big-endian host it turns postings read as raw little-endian bytes into
// native ones.
func swapPostings(ps []Posting) {
	for i := range ps {
		p := &ps[i]
		p.TextID, p.L = bits.ReverseBytes32(p.TextID), bits.ReverseBytes32(p.L)
		p.C, p.R = bits.ReverseBytes32(p.C), bits.ReverseBytes32(p.R)
	}
}

// swapColumns is swapPostings for resident columns: it reverses the
// bytes of every entry of hashes and of counts in place.
func swapColumns(hashes []uint64, counts []uint32) {
	for i := range hashes {
		hashes[i] = bits.ReverseBytes64(hashes[i])
	}
	for i := range counts {
		counts[i] = bits.ReverseBytes32(counts[i])
	}
}
