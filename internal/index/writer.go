package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ndss/internal/fsio"
)

// Segment file layout (little-endian): one file holds a segment's k
// inverted files, one region per hash function.
//
//	header:  magic [8]byte "NDSSSEG2" | k u32 | zoneMapStep u32 |
//	         longListCutoff u32
//	for each function in order, back to back:
//	  lists:     in ascending hash order, back to back: for each list,
//	             count postings of 16 bytes (sorted by text id),
//	             immediately followed, when count > longListCutoff, by
//	             ceil(count/zoneMapStep) zone entries: the text id u32 of
//	             every zoneMapStep-th posting
//	  directory: the columns the reader keeps resident, in hash order:
//	             hashes [numLists]u64, then starts [numLists+1]u32, the
//	             running posting count (starts[i]: postings before list i)
//	footer:  k rows of dirOff u64 | numLists u64 | regionCRC u32 | dirCRC u32,
//	         then footerCRC u32, the CRC-32 of the k rows
//
// Offsets are absolute. A function's region starts where the previous
// function's directory ends (function 0's right after the header), and
// the last directory ends where the footer starts; a list's offset and
// its zone map follow from the counts before it, so the file stores
// neither. The footer is verified when the file is opened and its CRC
// is recorded in the manifest, so Open rejects a file from a different
// build; the header's zone parameters are checked against the manifest;
// each dirCRC (IEEE CRC-32 of a directory) is verified as the directory
// is loaded, and each regionCRC, covering a function's postings/zones
// region, on demand by Index.VerifyIntegrity, since validating it
// requires reading the whole file. Open refuses a function whose columns
// do not describe that back-to-back layout (ListOrderError).

const (
	segMagic      = "NDSSSEG2"
	segHeaderLen  = 20
	zoneEntrySize = 4
	footerRowLen  = 24
)

// footerLen is the size of a k-function segment file's footer.
func footerLen(k int) int64 { return int64(k)*footerRowLen + 4 }

// segSum describes a finished segment file for the build manifest.
type segSum struct {
	size      int64
	footerCRC uint32
}

// segmentWriter streams one segment file: the k functions in order, one
// create, one buffer and one fsync for all of them. Lists must
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
	k          int
	pos        uint64
	hashes     []uint64 // the current function's directory columns
	starts     []uint32 // one more entry than hashes; the last is the running count
	footer     []byte   // the finished functions' footer rows
	zoneStep   int
	longCutoff int
	buf        []byte
	out        []byte // bytes not yet written to f; grows up to flushAt
	regionCRC  uint32 // running CRC of the current function's region
	crcAt      int    // out[crcAt:] is region not yet in regionCRC
	closed     bool
}

// PostingOverflowError reports a list that would take one function of a
// segment file past the MaxUint32 postings its running-count column
// holds. The writer refuses the list before writing any of it; index
// such a corpus as several shards.
type PostingOverflowError struct {
	Path     string // segment file being written
	Hash     uint64 // the list that does not fit
	Postings uint64 // the function's postings with the list
}

func (e *PostingOverflowError) Error() string {
	return fmt.Sprintf("index: %s: list %x takes a function to %d postings, more than a segment file counts (%d)",
		e.Path, e.Hash, e.Postings, uint32(math.MaxUint32))
}

// newSegmentWriter creates the segment file at path for k functions.
func newSegmentWriter(fsys fsio.FS, path string, k, zoneStep, longCutoff int) (*segmentWriter, error) {
	// The header holds both as u32; a negative cutoff wraps above the bound.
	if zoneStep < 1 || uint64(zoneStep) > math.MaxUint32 || uint64(longCutoff) > math.MaxUint32 {
		return nil, fmt.Errorf("index: zone step %d must be positive and long-list cutoff %d not negative, both within a uint32", zoneStep, longCutoff)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create segment file: %w", err)
	}
	w := &segmentWriter{
		fs:         fsys,
		path:       path,
		f:          f,
		k:          k,
		starts:     []uint32{0},
		zoneStep:   zoneStep,
		longCutoff: longCutoff,
	}
	hdr := binary.LittleEndian.AppendUint32([]byte(segMagic), uint32(k))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(zoneStep))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(longCutoff))
	w.out, w.crcAt, w.pos = append(make([]byte, 0, 4<<10), hdr...), len(hdr), segHeaderLen
	return w, nil
}

// addList writes ps as the inverted list of hash h in the current
// function. ps must be strictly ascending in (text id, L): zone maps and
// per-text probes search on that order, so breaking it is a build error
// here rather than postings a query silently misses. A list that would
// take the function past MaxUint32 postings is a *PostingOverflowError
// before any of it is written. A hash written twice (lists must be
// aggregated before reaching the writer) or out of hash order is
// detected at endFunc.
func (w *segmentWriter) addList(h uint64, ps []Posting) error {
	if len(ps) == 0 {
		return errors.New("index: empty inverted list")
	}
	total := uint64(w.starts[len(w.starts)-1]) + uint64(len(ps))
	if total > math.MaxUint32 {
		return &PostingOverflowError{Path: w.path, Hash: h, Postings: total}
	}
	for i := 1; i < len(ps); i++ {
		if a, b := ps[i-1], ps[i]; a.TextID > b.TextID || a.TextID == b.TextID && a.L >= b.L {
			return fmt.Errorf("index: list %x out of order: %v before %v", h, a, b)
		}
	}
	// A posting's in-memory bytes are its on-disk bytes on a
	// little-endian host, so the list is copied once, into the writer's
	// buffer; a big-endian host encodes it field by field.
	data := bytesOf(ps)
	if !hostLittleEndian {
		data = w.buf[:0]
		for _, p := range ps {
			data = appendPosting(data, p)
		}
		w.buf = data
	}
	if err := w.write(data); err != nil {
		return err
	}
	if len(ps) > w.longCutoff {
		zones := w.buf[:0]
		for ord := 0; ord < len(ps); ord += w.zoneStep {
			zones = binary.LittleEndian.AppendUint32(zones, ps[ord].TextID)
		}
		w.buf = zones
		if err := w.write(zones); err != nil {
			return err
		}
	}
	w.hashes, w.starts = append(w.hashes, h), append(w.starts, uint32(total))
	return nil
}

// flushAt is how many bytes the writer gathers before it hands them to
// the file in one write. Region bytes are checksummed over the same
// gathered batches: most lists are a posting or two, and CRC-32 takes a
// table-driven path over so few bytes; over a batch it takes the
// carry-less-multiply one, several times faster.
const flushAt = 1 << 20

// write appends b to the current function's region.
func (w *segmentWriter) write(b []byte) error {
	w.pos += uint64(len(b))
	return w.put(b, true)
}

// put appends b to the bytes bound for the file, writing them out each
// time flushAt are gathered. Region bytes are checksummed before they
// leave; bytes outside a region (directory, footer) must follow a
// sumRegion.
func (w *segmentWriter) put(b []byte, region bool) error {
	for {
		n := min(len(b), flushAt-len(w.out))
		w.room(n)
		w.out, b = append(w.out, b[:n]...), b[n:]
		if len(b) == 0 {
			break
		}
		if region {
			w.sumRegion()
		}
		if err := w.flush(); err != nil {
			return err
		}
	}
	if !region {
		w.crcAt = len(w.out)
	}
	return nil
}

// room makes out able to take n more bytes, growing it as bytes arrive
// and never past flushAt, so a small segment's buffer is about its own
// size. Until a function has ended it doubles; then it takes the size
// the whole file projects to, with an eighth to spare, as a segment's
// functions hold about as many bytes each.
func (w *segmentWriter) room(n int) {
	need := len(w.out) + n
	if need <= cap(w.out) {
		return
	}
	size := 2 * cap(w.out)
	if done := len(w.footer) / footerRowLen; done > 0 {
		size = max(cap(w.out)+cap(w.out)/8, int(w.pos)/done*w.k*9/8)
	}
	w.out = append(make([]byte, 0, min(flushAt, max(need, size))), w.out...)
}

// sumRegion folds the region bytes gathered since the last call into
// regionCRC.
func (w *segmentWriter) sumRegion() {
	w.regionCRC = crc32.Update(w.regionCRC, crc32.IEEETable, w.out[w.crcAt:])
	w.crcAt = len(w.out)
}

// flush writes the gathered bytes to the file.
func (w *segmentWriter) flush() error {
	_, err := w.f.Write(w.out)
	w.out, w.crcAt = w.out[:0], 0
	return err
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
	for i := 1; i < len(w.hashes); i++ {
		if h, prev := w.hashes[i], w.hashes[i-1]; h == prev {
			return fmt.Errorf("index: hash %x written as two lists", h)
		} else if h < prev {
			return fmt.Errorf("index: list %x written after list %x: lists must arrive in hash order", h, prev)
		}
	}
	w.sumRegion()
	dir := w.buf[:0]
	for _, h := range w.hashes {
		dir = binary.LittleEndian.AppendUint64(dir, h)
	}
	for _, s := range w.starts {
		dir = binary.LittleEndian.AppendUint32(dir, s)
	}
	w.buf = dir
	if err := w.put(dir, false); err != nil {
		return err
	}
	w.footer = binary.LittleEndian.AppendUint64(w.footer, w.pos)
	w.footer = binary.LittleEndian.AppendUint64(w.footer, uint64(len(w.hashes)))
	w.footer = binary.LittleEndian.AppendUint32(w.footer, w.regionCRC)
	w.footer = binary.LittleEndian.AppendUint32(w.footer, crc32.ChecksumIEEE(dir))
	w.pos += uint64(len(dir))
	w.hashes, w.starts, w.regionCRC = w.hashes[:0], w.starts[:1], 0
	return nil
}

// finish writes the footer once all k functions are ended, fsyncs, and
// closes the file. It returns the file's size and footer checksum for
// the build manifest. Any failure removes the partial file.
func (w *segmentWriter) finish() (segSum, error) {
	if w.closed {
		return segSum{}, errors.New("index: writer already finished")
	}
	if n := len(w.footer) / footerRowLen; n != w.k || len(w.hashes) > 0 {
		w.abort()
		return segSum{}, fmt.Errorf("index: segment file finished after %d of %d functions", n, w.k)
	}
	footerCRC := crc32.ChecksumIEEE(w.footer)
	w.footer = binary.LittleEndian.AppendUint32(w.footer, footerCRC)
	err := w.put(w.footer, false)
	if err == nil && len(w.out) > 0 {
		err = w.flush()
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
