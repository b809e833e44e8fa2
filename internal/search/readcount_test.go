package search

import (
	"sync"
	"sync/atomic"

	"ndss/internal/fsio"
)

// ReadCountFS is an fsio.FS that counts the ReadAt calls made on the
// files it opens, per file name and in total, and the bytes those calls
// returned. It is exported for the external test package.
type ReadCountFS struct {
	fsio.FS
	total, bytes atomic.Int64

	mu    sync.Mutex
	files map[string]*atomic.Int64 // guarded by mu
}

func (c *ReadCountFS) Open(name string) (fsio.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, fs: c, reads: c.counter(name)}, nil
}

func (c *ReadCountFS) counter(name string) *atomic.Int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.files == nil {
		c.files = make(map[string]*atomic.Int64)
	}
	n := c.files[name]
	if n == nil {
		n = new(atomic.Int64)
		c.files[name] = n
	}
	return n
}

// Reads returns the ReadAt calls made so far on the files opened as
// name.
func (c *ReadCountFS) Reads(name string) int64 { return c.counter(name).Load() }

// Total returns the ReadAt calls made so far on every file.
func (c *ReadCountFS) Total() int64 { return c.total.Load() }

// Bytes returns the bytes the ReadAt calls on every file have returned
// so far: what the filesystem actually handed over.
func (c *ReadCountFS) Bytes() int64 { return c.bytes.Load() }

type readCountFile struct {
	fsio.File
	fs    *ReadCountFS
	reads *atomic.Int64
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	f.fs.total.Add(1)
	n, err := f.File.ReadAt(p, off)
	f.fs.bytes.Add(int64(n))
	return n, err
}
