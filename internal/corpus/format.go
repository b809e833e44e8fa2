package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// On-disk layout (all integers little-endian):
//
//	magic   [8]byte  "NDSSTOK1"
//	numTexts uint32
//	reserved uint32
//	texts:   numTexts records of [length uint32][tokens ...uint32]
//	footer:  numTexts offsets (uint64, absolute file offset of each record)
//	trailer: footerOffset uint64
//
// The footer enables O(1) random access to any text; sequential streaming
// just walks the records.

const tokMagic = "NDSSTOK1"

// ErrBadFormat reports a corrupt or foreign corpus file.
var ErrBadFormat = errors.New("corpus: bad file format")

// Writer writes a corpus file incrementally. Call Add for each text and
// Close to seal the footer.
type Writer struct {
	f       *os.File
	w       *bufio.Writer
	offsets []uint64
	pos     uint64
	closed  bool
}

// NewWriter creates (truncates) path and writes the header.
func NewWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: create writer: %w", err)
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<20)}
	if _, err := w.w.WriteString(tokMagic); err != nil {
		f.Close()
		return nil, err
	}
	// numTexts is unknown until Close; write a placeholder now and fix it
	// on Close via WriteAt.
	var hdr [8]byte
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	w.pos = uint64(len(tokMagic)) + 8
	return w, nil
}

// Add appends one text.
func (w *Writer) Add(tokens []uint32) error {
	if w.closed {
		return errors.New("corpus: writer is closed")
	}
	w.offsets = append(w.offsets, w.pos)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(tokens)))
	if _, err := w.w.Write(lenBuf[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(tokens))
	for i, tok := range tokens {
		binary.LittleEndian.PutUint32(buf[4*i:], tok)
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.pos += uint64(4 + len(buf))
	return nil
}

// Close writes the footer and trailer and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	footerOff := w.pos
	buf := make([]byte, 8*len(w.offsets)+8)
	for i, off := range w.offsets {
		binary.LittleEndian.PutUint64(buf[8*i:], off)
	}
	binary.LittleEndian.PutUint64(buf[8*len(w.offsets):], footerOff)
	if _, err := w.w.Write(buf); err != nil {
		w.f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	// Patch numTexts in the header.
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(w.offsets)))
	if _, err := w.f.WriteAt(cnt[:], int64(len(tokMagic))); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// WriteFile writes an in-memory corpus to path.
func WriteFile(c *Corpus, path string) error {
	w, err := NewWriter(path)
	if err != nil {
		return err
	}
	for id := 0; id < c.NumTexts(); id++ {
		if err := w.Add(c.Text(uint32(id))); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

// Reader provides random and streaming access to a corpus file.
type Reader struct {
	f        *os.File
	numTexts uint32
	offsets  []uint64
	dataEnd  uint64 // offset where records end (footer start)
}

// OpenReader opens a corpus file and loads its footer.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open reader: %w", err)
	}
	r := &Reader{f: f}
	if err := r.loadMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) loadMeta() error {
	var hdr [16]byte
	if _, err := io.ReadFull(io.NewSectionReader(r.f, 0, 16), hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(hdr[:8]) != tokMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:8])
	}
	r.numTexts = binary.LittleEndian.Uint32(hdr[8:12])
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < 24 {
		return fmt.Errorf("%w: file too small", ErrBadFormat)
	}
	var tail [8]byte
	if _, err := r.f.ReadAt(tail[:], st.Size()-8); err != nil {
		return err
	}
	footerOff := binary.LittleEndian.Uint64(tail[:])
	wantFooterLen := uint64(8*r.numTexts) + 8
	if footerOff+wantFooterLen != uint64(st.Size()) {
		return fmt.Errorf("%w: footer offset %d inconsistent with size %d", ErrBadFormat, footerOff, st.Size())
	}
	r.dataEnd = footerOff
	buf := make([]byte, 8*r.numTexts)
	if _, err := r.f.ReadAt(buf, int64(footerOff)); err != nil {
		return err
	}
	r.offsets = make([]uint64, r.numTexts)
	for i := range r.offsets {
		r.offsets[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return nil
}

// NumTexts returns the number of texts in the file.
func (r *Reader) NumTexts() int { return int(r.numTexts) }

// TotalTokens returns the total token count, derived from the record
// region size (each record is 4 length bytes plus 4 bytes per token).
func (r *Reader) TotalTokens() int64 {
	return (int64(r.dataEnd) - 16 - 4*int64(r.numTexts)) / 4
}

// ReadText reads text id into a fresh slice.
func (r *Reader) ReadText(id uint32) ([]uint32, error) {
	if id >= r.numTexts {
		return nil, fmt.Errorf("corpus: text id %d out of range [0, %d)", id, r.numTexts)
	}
	var lenBuf [4]byte
	off := int64(r.offsets[id])
	if _, err := r.f.ReadAt(lenBuf[:], off); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	buf := make([]byte, 4*n)
	if _, err := r.f.ReadAt(buf, off+4); err != nil {
		return nil, err
	}
	tokens := make([]uint32, n)
	for i := range tokens {
		tokens[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return tokens, nil
}

// Stream reads texts sequentially in batches of roughly batchTokens
// tokens (at least one text per batch) and invokes fn with the id of the
// first text in the batch and the batch's token slices. This is the
// access path the out-of-core index builder uses. Each text's token
// slice is freshly allocated and fn may keep it; only the outer
// [][]uint32 is reused, so fn must not retain that across calls.
func (r *Reader) Stream(batchTokens int, fn func(firstID uint32, texts [][]uint32) error) error {
	if batchTokens < 1 {
		batchTokens = 1
	}
	br := bufio.NewReaderSize(io.NewSectionReader(r.f, 16, int64(r.dataEnd)-16), 1<<20)
	var (
		batch   [][]uint32
		inBatch int
		firstID uint32
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := fn(firstID, batch)
		firstID += uint32(len(batch))
		batch = batch[:0]
		inBatch = 0
		return err
	}
	for id := uint32(0); id < r.numTexts; id++ {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return fmt.Errorf("corpus: stream text %d: %w", id, err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("corpus: stream text %d: %w", id, err)
		}
		tokens := make([]uint32, n)
		for i := range tokens {
			tokens[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
		batch = append(batch, tokens)
		inBatch += int(n)
		if inBatch >= batchTokens {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// ReadFile loads an entire corpus file into memory.
func ReadFile(path string) (*Corpus, error) {
	r, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	c := &Corpus{texts: make([][]uint32, 0, r.NumTexts())}
	err = r.Stream(1<<20, func(_ uint32, texts [][]uint32) error {
		c.texts = append(c.texts, texts...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}
