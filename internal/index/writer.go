package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ndss/internal/fsio"
)

// Segment file layout (little-endian): one file holds a segment's k
// inverted files, one region per hash function.
//
//	header:  magic [8]byte "NDSSSEG1" | k uint32 | flags uint32
//	for each function in order, back to back:
//	  lists:     in ascending hash order, back to back: for each list,
//	             count postings of 16 bytes (sorted by text id),
//	             immediately followed by its zone entries (8 bytes each)
//	             when the list is long enough to carry a zone map
//	  directory: numLists entries of 32 bytes, in the same (hash) order:
//	             hash u64 | postingsOff u64 | count u32 | zoneCount u32 |
//	             zoneOff u64
//	footer:  k rows of dirOff u64 | numLists u64 | regionCRC u32 | dirCRC u32,
//	         then footerCRC u32, the CRC-32 of the k rows
//
// Offsets are absolute. A function's region starts where the previous
// function's directory ends (function 0's right after the header), and
// the last directory ends where the footer starts. The footer is
// verified when the file is opened and its CRC is recorded in the
// manifest, so Open rejects a file from a different build; each dirCRC
// (IEEE CRC-32 of a directory) is verified as the directory is loaded,
// and each regionCRC, covering a function's postings/zones region, on
// demand by Index.VerifyIntegrity, since validating it requires reading
// the whole file. Open also refuses a function whose directory offsets
// are not the ones the back-to-back layout implies (ListOrderError): the
// reader keeps only hashes and running posting counts resident and
// derives offsets from them.

const (
	segMagic      = "NDSSSEG1"
	segHeaderLen  = 16
	dirEntrySize  = 32
	zoneEntrySize = 8
	footerRowLen  = 24
)

// footerLen is the size of a k-function segment file's footer.
func footerLen(k int) int64 { return int64(k)*footerRowLen + 4 }

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

// segSum describes a finished segment file for the build manifest.
type segSum struct {
	size      int64
	footerCRC uint32
}

// segmentWriter streams one segment file: the k functions in order, one
// create, one buffered writer and one fsync for all of them. Lists must
// be added in strictly ascending hash order, the only layout Open
// accepts; endFunc checks it before writing the function's directory,
// so only one function's directory is ever held in memory. Every
// failure exit of endFunc and finish removes the partial file, and abort
// does on the caller's failure paths, so an interrupted write never
// leaves a stray segment file behind.
type segmentWriter struct {
	fs         fsio.FS
	path       string
	f          fsio.File
	w          *bufio.Writer
	k          int
	pos        uint64
	entries    []dirEntry // the current function's directory
	footer     []byte     // the finished functions' footer rows
	zoneStep   int
	longCutoff int
	buf        []byte
	regionCRC  uint32 // running CRC of the current function's region
	closed     bool
}

// newSegmentWriter creates the segment file at path for k functions.
func newSegmentWriter(fsys fsio.FS, path string, k, zoneStep, longCutoff int) (*segmentWriter, error) {
	if zoneStep < 1 {
		return nil, fmt.Errorf("index: zone step must be positive, got %d", zoneStep)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create segment file: %w", err)
	}
	w := &segmentWriter{
		fs:         fsys,
		path:       path,
		f:          f,
		w:          bufio.NewWriterSize(f, 1<<20),
		k:          k,
		zoneStep:   zoneStep,
		longCutoff: longCutoff,
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(k))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.abort()
		return nil, err
	}
	w.pos = segHeaderLen
	return w, nil
}

// addList writes one inverted list of the current function. recs must
// all carry the hash h and be strictly ascending in (text id, L): zone
// maps and per-text probes search on that order, so breaking it is a
// build error here rather than postings a query silently misses. A hash
// written twice (lists must be aggregated before reaching the writer) or
// out of hash order is detected at endFunc.
func (w *segmentWriter) addList(h uint64, recs []record) error {
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

// endFunc writes the current function's directory, records its footer
// row and starts the next function's region. Any failure removes the
// partial file.
func (w *segmentWriter) endFunc() error {
	if err := w.writeDirectory(); err != nil {
		w.abort()
		return err
	}
	return nil
}

func (w *segmentWriter) writeDirectory() error {
	if w.closed {
		return errors.New("index: writer already finished")
	}
	if len(w.footer) == w.k*footerRowLen {
		return fmt.Errorf("index: segment file already holds its %d functions", w.k)
	}
	for i := 1; i < len(w.entries); i++ {
		if h, prev := w.entries[i].Hash, w.entries[i-1].Hash; h == prev {
			return fmt.Errorf("index: hash %x written as two lists", h)
		} else if h < prev {
			return fmt.Errorf("index: list %x written after list %x: lists must arrive in hash order", h, prev)
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
			return err
		}
		dirCRC = crc32.Update(dirCRC, crc32.IEEETable, eb[:])
	}
	w.pos += uint64(len(w.entries) * dirEntrySize)
	w.footer = binary.LittleEndian.AppendUint64(w.footer, dirOff)
	w.footer = binary.LittleEndian.AppendUint64(w.footer, uint64(len(w.entries)))
	w.footer = binary.LittleEndian.AppendUint32(w.footer, w.regionCRC)
	w.footer = binary.LittleEndian.AppendUint32(w.footer, dirCRC)
	w.entries, w.regionCRC = w.entries[:0], 0
	return nil
}

// finish writes the footer once all k functions are ended, fsyncs, and
// closes the file. It returns the file's size and footer checksum for
// the build manifest. Any failure removes the partial file.
func (w *segmentWriter) finish() (segSum, error) {
	if w.closed {
		return segSum{}, errors.New("index: writer already finished")
	}
	if n := len(w.footer) / footerRowLen; n != w.k || len(w.entries) > 0 {
		w.abort()
		return segSum{}, fmt.Errorf("index: segment file finished after %d of %d functions", n, w.k)
	}
	footerCRC := crc32.ChecksumIEEE(w.footer)
	w.footer = binary.LittleEndian.AppendUint32(w.footer, footerCRC)
	_, err := w.w.Write(w.footer)
	if err == nil {
		err = w.w.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.abort()
		return segSum{}, err
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		w.fs.Remove(w.path)
		return segSum{}, err
	}
	return segSum{size: int64(w.pos) + int64(len(w.footer)), footerCRC: footerCRC}, nil
}

// abort closes and removes the partially written file (best-effort; a
// failed removal is an orphan the next build or mutation sweeps). It is
// a no-op once the writer is finished, so callers may defer it.
func (w *segmentWriter) abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
	w.fs.Remove(w.path)
}
