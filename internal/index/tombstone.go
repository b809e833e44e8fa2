package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"path/filepath"

	"ndss/internal/fsio"
)

// Per-segment tombstone bitmaps. Segments are immutable, so a delete
// never touches a segment file: it writes a fresh bitmap naming the
// segment's dead local text ids and commits a manifest pointing at it.
// Readers consult the bitmap at gather time — a tombstoned text never
// becomes a candidate — and compaction drops the dead postings for
// good, retiring the bitmap. Text ids are never reused: the aggregate
// NumTexts keeps counting the id-space width, deleted ids included.
//
// On-disk layout (little-endian):
//
//	magic "NDSSTMB1" | numTexts uint32 | bitmap ceil(numTexts/8) bytes
//
// The manifest records the file's CRC-32 and set-bit count, so a torn
// or stale bitmap is rejected at Open.

const tombMagic = "NDSSTMB1"

// tombSet is a loaded tombstone bitmap over a segment's local text ids.
// A nil *tombSet means "nothing deleted" and is valid to query.
type tombSet struct {
	n    int
	bits []byte
}

func newTombSet(numTexts int) *tombSet {
	return &tombSet{n: numTexts, bits: make([]byte, (numTexts+7)/8)}
}

// has reports whether local text id is tombstoned. Safe on nil.
func (t *tombSet) has(local uint32) bool {
	if t == nil || int64(local) >= int64(t.n) {
		return false
	}
	return t.bits[local>>3]&(1<<(local&7)) != 0
}

func (t *tombSet) set(local int) { t.bits[local>>3] |= 1 << (local & 7) }

// count returns the number of tombstoned ids.
func (t *tombSet) count() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.bits {
		n += bits.OnesCount8(b)
	}
	return n
}

// encodeTombstone renders the on-disk form and its CRC.
func encodeTombstone(t *tombSet) (data []byte, crc uint32) {
	data = make([]byte, len(tombMagic)+4+len(t.bits))
	copy(data, tombMagic)
	binary.LittleEndian.PutUint32(data[len(tombMagic):], uint32(t.n))
	copy(data[len(tombMagic)+4:], t.bits)
	return data, crc32.ChecksumIEEE(data)
}

// parseTombstone decodes and validates tombstone bytes against the
// segment it claims to cover and the manifest's checksum record.
func parseTombstone(data []byte, want *ManifestTombstone, numTexts int) (*tombSet, error) {
	if got := crc32.ChecksumIEEE(data); got != want.CRC {
		return nil, fmt.Errorf("index: tombstone %s checksum %08x does not match manifest (%08x): torn or mixed commit",
			want.Name, got, want.CRC)
	}
	if len(data) < len(tombMagic)+4 || string(data[:len(tombMagic)]) != tombMagic {
		return nil, fmt.Errorf("index: tombstone %s: bad header", want.Name)
	}
	n := int(binary.LittleEndian.Uint32(data[len(tombMagic):]))
	if n != numTexts {
		return nil, fmt.Errorf("index: tombstone %s covers %d texts, segment has %d", want.Name, n, numTexts)
	}
	bitmap := data[len(tombMagic)+4:]
	if len(bitmap) != (n+7)/8 {
		return nil, fmt.Errorf("index: tombstone %s: bitmap truncated", want.Name)
	}
	if pad := n % 8; pad != 0 && bitmap[len(bitmap)-1]>>pad != 0 {
		return nil, fmt.Errorf("index: tombstone %s marks ids beyond its %d texts", want.Name, n)
	}
	t := &tombSet{n: n, bits: bitmap}
	if got := t.count(); got != want.Deleted {
		return nil, fmt.Errorf("index: tombstone %s marks %d texts, manifest records %d", want.Name, got, want.Deleted)
	}
	return t, nil
}

// readTombstone loads a segment's tombstone bitmap from the index
// directory, where it lives beside the manifest and the segment files.
func readTombstone(fsys fsio.FS, dir string, want *ManifestTombstone, numTexts int) (*tombSet, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, want.Name))
	if err != nil {
		return nil, fmt.Errorf("index: read tombstone %s: %w", want.Name, err)
	}
	return parseTombstone(data, want, numTexts)
}

// writeTombstone durably writes a segment's new bitmap under a fresh
// unique name and returns its manifest record. The file is unreferenced
// until the caller commits a manifest naming it, so a crash leaves only
// a sweepable orphan.
func writeTombstone(fsys fsio.FS, dir, segName string, t *tombSet) (*ManifestTombstone, error) {
	name := fmt.Sprintf("tomb-%s-%s", segName, newBuildID())
	data, crc := encodeTombstone(t)
	if err := fsio.WriteFileSync(fsys, filepath.Join(dir, name), data); err != nil {
		return nil, fmt.Errorf("index: write tombstone %s: %w", name, err)
	}
	return &ManifestTombstone{Name: name, Deleted: t.count(), CRC: crc}, nil
}
