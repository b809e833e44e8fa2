package index

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// This file is the package's only use of unsafe: a list read lands in
// the caller's []Posting through a byte view of it, so postings are
// copied once, from the page cache into the query's arena.

// A Posting is four uint32s with no padding, the 16 bytes of its
// on-disk form; the byte view relies on it.
var _ [postingSize - unsafe.Sizeof(Posting{})]struct{}
var _ [unsafe.Sizeof(Posting{}) - postingSize]struct{}

// hostLittleEndian reports whether a Posting's in-memory bytes are its
// on-disk (little-endian) bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// postingBytes views ps as the bytes that hold it.
func postingBytes(ps []Posting) []byte {
	if len(ps) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ps))), len(ps)*postingSize)
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
