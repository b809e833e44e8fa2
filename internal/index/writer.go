package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ndss/internal/fsio"
)

// Per-function inverted file layout (little-endian):
//
//	magic   [8]byte  "NDSSIDX1"
//	funcIdx uint32
//	flags   uint32
//	lists:   in ascending hash order, back to back: for each list, count
//	         postings of 16 bytes (sorted by text id), immediately
//	         followed by its zone entries (8 bytes each) when the list is
//	         long enough to carry a zone map
//	directory: numLists entries of 32 bytes, in the same (hash) order:
//	         hash u64 | postingsOff u64 | count u32 | zoneCount u32 |
//	         zoneOff u64
//	trailer: dirOff u64 | numLists u64 | regionCRC u32 | dirCRC u32
//
// dirCRC (IEEE CRC-32 of the directory bytes) is verified when the file
// is opened; regionCRC covers the postings/zones region and is checked
// on demand by Index.VerifyIntegrity, since validating it requires
// reading the whole file. Both checksums are also recorded in the build
// manifest so Open can reject a file from a different build. Open also
// refuses a file whose directory offsets are not the ones the hash-order
// layout implies (ListOrderError): the reader keeps only hashes and
// running posting counts resident and derives offsets from them.

const (
	idxMagic      = "NDSSIDX1"
	idxHeaderLen  = 16
	dirEntrySize  = 32
	zoneEntrySize = 8
	trailerLen    = 24
)

// dirEntry is one directory row describing an inverted list.
type dirEntry struct {
	Hash      uint64
	Off       uint64 // absolute offset of the postings run
	Count     uint32 // number of postings
	ZoneCount uint32 // number of zone entries (0 = no zone map)
	ZoneOff   uint64 // absolute offset of the zone entries
}

// zoneEntry marks the first text id of a fixed-size run of postings,
// enabling per-text probes into long lists without reading them fully.
type zoneEntry struct {
	FirstTextID uint32
	Ordinal     uint32 // index of the zone's first posting within the list
}

// fileSum describes a finished inverted file for the build manifest.
type fileSum struct {
	size      int64
	dirCRC    uint32
	regionCRC uint32
}

// fileWriter streams one inverted file. Lists must be added in strictly
// ascending hash order, the only layout Open accepts; finish checks it
// before writing the directory. Every failure
// exit — including failures inside finish — removes the partial file,
// so an interrupted build never leaves a stray index.NNN behind.
type fileWriter struct {
	fs         fsio.FS
	path       string
	f          fsio.File
	w          *bufio.Writer
	pos        uint64
	entries    []dirEntry
	zoneStep   int
	longCutoff int
	buf        []byte
	regionCRC  uint32 // running CRC of the postings/zones region
	closed     bool
}

// newWriteBuffer returns the buffer a builder resets onto each of the k
// files it writes one after another, rather than allocating and zeroing
// a megabyte per file.
func newWriteBuffer() *bufio.Writer { return bufio.NewWriterSize(nil, 1<<20) }

// newFileWriter starts the inverted file at path. bw is reset onto it
// and belongs to this writer until finish or abort.
func newFileWriter(fsys fsio.FS, path string, funcIdx, zoneStep, longCutoff int, bw *bufio.Writer) (*fileWriter, error) {
	if zoneStep < 1 {
		return nil, fmt.Errorf("index: zone step must be positive, got %d", zoneStep)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create inverted file: %w", err)
	}
	bw.Reset(f)
	w := &fileWriter{
		fs:         fsys,
		path:       path,
		f:          f,
		w:          bw,
		zoneStep:   zoneStep,
		longCutoff: longCutoff,
	}
	var hdr [idxHeaderLen]byte
	copy(hdr[:8], idxMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(funcIdx))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.discard()
		return nil, err
	}
	w.pos = idxHeaderLen
	return w, nil
}

// addList writes one inverted list. recs must all carry the hash h and
// be strictly ascending in (text id, L): zone maps and per-text probes
// search on that order, so breaking it is a build error here rather than
// postings a query silently misses. A hash written twice (lists must be
// aggregated before reaching the writer) or out of hash order is
// detected at finish.
func (w *fileWriter) addList(h uint64, recs []record) error {
	if len(recs) == 0 {
		return errors.New("index: empty inverted list")
	}
	entry := dirEntry{Hash: h, Off: w.pos, Count: uint32(len(recs))}
	need := len(recs) * postingSize
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	buf := w.buf[:need]
	for i, r := range recs {
		if r.Hash != h {
			return fmt.Errorf("index: mixed hashes in list: %x vs %x", r.Hash, h)
		}
		if i > 0 && compareRecords(recs[i-1], r) >= 0 {
			return fmt.Errorf("index: list %x out of order: %v before %v", h, recs[i-1].Posting, r.Posting)
		}
		encodePosting(buf[i*postingSize:], r.Posting)
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.regionCRC = crc32.Update(w.regionCRC, crc32.IEEETable, buf)
	w.pos += uint64(need)

	if len(recs) > w.longCutoff {
		nz := (len(recs) + w.zoneStep - 1) / w.zoneStep
		entry.ZoneOff = w.pos
		entry.ZoneCount = uint32(nz)
		var zb [zoneEntrySize]byte
		for z := 0; z < nz; z++ {
			ord := z * w.zoneStep
			binary.LittleEndian.PutUint32(zb[0:], recs[ord].Posting.TextID)
			binary.LittleEndian.PutUint32(zb[4:], uint32(ord))
			if _, err := w.w.Write(zb[:]); err != nil {
				return err
			}
			w.regionCRC = crc32.Update(w.regionCRC, crc32.IEEETable, zb[:])
		}
		w.pos += uint64(nz * zoneEntrySize)
	}
	w.entries = append(w.entries, entry)
	return nil
}

// finish writes the directory and trailer, fsyncs, and closes the
// file. It returns the file's size and checksums for the build
// manifest. Any failure removes the partial file.
func (w *fileWriter) finish() (fileSum, error) {
	if w.closed {
		return fileSum{}, errors.New("index: writer already finished")
	}
	w.closed = true
	for i := 1; i < len(w.entries); i++ {
		if h, prev := w.entries[i].Hash, w.entries[i-1].Hash; h == prev {
			w.remove()
			return fileSum{}, fmt.Errorf("index: hash %x written as two lists", h)
		} else if h < prev {
			w.remove()
			return fileSum{}, fmt.Errorf("index: list %x written after list %x: lists must arrive in hash order", h, prev)
		}
	}
	dirOff := w.pos
	dirCRC := uint32(0)
	var eb [dirEntrySize]byte
	for _, e := range w.entries {
		binary.LittleEndian.PutUint64(eb[0:], e.Hash)
		binary.LittleEndian.PutUint64(eb[8:], e.Off)
		binary.LittleEndian.PutUint32(eb[16:], e.Count)
		binary.LittleEndian.PutUint32(eb[20:], e.ZoneCount)
		binary.LittleEndian.PutUint64(eb[24:], e.ZoneOff)
		if _, err := w.w.Write(eb[:]); err != nil {
			w.remove()
			return fileSum{}, err
		}
		dirCRC = crc32.Update(dirCRC, crc32.IEEETable, eb[:])
	}
	w.pos += uint64(len(w.entries) * dirEntrySize)
	var tb [trailerLen]byte
	binary.LittleEndian.PutUint64(tb[0:], dirOff)
	binary.LittleEndian.PutUint64(tb[8:], uint64(len(w.entries)))
	binary.LittleEndian.PutUint32(tb[16:], w.regionCRC)
	binary.LittleEndian.PutUint32(tb[20:], dirCRC)
	if _, err := w.w.Write(tb[:]); err != nil {
		w.remove()
		return fileSum{}, err
	}
	w.pos += trailerLen
	if err := w.w.Flush(); err != nil {
		w.remove()
		return fileSum{}, err
	}
	if err := w.f.Sync(); err != nil {
		w.remove()
		return fileSum{}, err
	}
	if err := w.f.Close(); err != nil {
		w.fs.Remove(w.path)
		return fileSum{}, err
	}
	return fileSum{size: int64(w.pos), dirCRC: dirCRC, regionCRC: w.regionCRC}, nil
}

// abort closes and removes the partially written file. Safe to call
// after finish (it is then a no-op).
func (w *fileWriter) abort() {
	if !w.closed {
		w.discard()
	}
}

// discard marks the writer closed, closes the file and removes it.
func (w *fileWriter) discard() {
	w.closed = true
	w.remove()
}

// remove closes and deletes the underlying file (best-effort; a failed
// removal is an orphan inside a staging directory, swept later).
func (w *fileWriter) remove() {
	w.f.Close()
	w.fs.Remove(w.path)
}
