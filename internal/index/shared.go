package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sync"

	"ndss/internal/fsio"
)

// segFile is one open segment file and everything Open loads from it:
// the handle and the k resident function views (directory columns and
// zone tables). A committed segment file is never written again, so
// every Index of the process that opens the same file through the same
// FS shares one segFile (openFiles): a reload after an append loads
// only the new segment, and a compaction's own Open loads nothing. The
// last holder to let go closes the handle.
type segFile struct {
	path      string
	f         fsio.File
	info      os.FileInfo // the handle's fstat at load, for os.SameFile
	size      int64
	footerCRC uint32
	funcs     []*funcFile

	key fileKey // set before the file is shared; zero for a file never shared
}

// fileKey names a loaded segment file by everything a manifest record
// says of it: the FS it was read through, its path, its size and footer
// checksum, and the header fields Open checked against the manifest's
// meta. A record with an equal key describes a file that loads to the
// same views, if the path still names the file (segFile.unchanged).
type fileKey struct {
	fsys      fsio.FS
	path      string
	size      int64
	footerCRC uint32
	k, step   int
	cutoff    int
}

// fileRegistry counts the holders of every open segment file and finds
// the shareable ones by key.
type fileRegistry struct {
	mu    sync.Mutex
	refs  map[*segFile]int     // guarded by mu; every open file's holders
	byKey map[fileKey]*segFile // guarded by mu; the shareable files among them
}

// openFiles is the process's one registry.
var openFiles = fileRegistry{refs: make(map[*segFile]int), byKey: make(map[fileKey]*segFile)}

// hold makes the caller sf's first holder.
func (r *fileRegistry) hold(sf *segFile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs[sf] = 1
}

// share returns the file registered under key with one more holder, or
// nil.
func (r *fileRegistry) share(key fileKey) *segFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	sf := r.byKey[key]
	if sf != nil {
		r.refs[sf]++
	}
	return sf
}

// publish registers sf under key. A concurrent Open may have loaded the
// same file meanwhile; the later one takes the key, and both stay valid
// for their holders.
func (r *fileRegistry) publish(key fileKey, sf *segFile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sf.key = key
	r.byKey[key] = sf
}

// release drops one hold on sf and reports whether it was the last.
func (r *fileRegistry) release(sf *segFile) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refs[sf]--
	if r.refs[sf] > 0 {
		return false
	}
	delete(r.refs, sf)
	if sf.key.fsys != nil && r.byKey[sf.key] == sf {
		delete(r.byKey, sf.key)
	}
	return true
}

// openSharedFile returns the open segment file the manifest record mseg
// describes at path. A file another Index holds is shared when a fresh
// Stat shows path still names it at the recorded size and a re-read of
// its footer still checks against the record; anything else — a file
// deleted, replaced, resized or rewritten since, or an FS whose value
// cannot key a map — is opened and checked afresh, with the diagnostics
// that gives.
func openSharedFile(fsys fsio.FS, path string, mseg ManifestSegment) (*segFile, error) {
	var key fileKey
	if reflect.ValueOf(fsys).Comparable() {
		key = fileKey{fsys, path, mseg.Size, mseg.FooterCRC, mseg.Meta.K, mseg.Meta.ZoneMapStep, mseg.Meta.LongListCutoff}
		if sf := openFiles.share(key); sf != nil {
			if sf.unchanged(fsys) {
				return sf, nil
			}
			sf.release()
		}
	}
	sf, err := openSegmentFile(fsys, path, mseg.Meta)
	if err != nil {
		return nil, err
	}
	if sf.size != mseg.Size || sf.footerCRC != mseg.FooterCRC {
		sf.release()
		return nil, fmt.Errorf("index: %s: size %d and footer checksum %08x do not match manifest (size %d, footer %08x): file from a torn or mixed build",
			sf.path, sf.size, sf.footerCRC, mseg.Size, mseg.FooterCRC)
	}
	if key.fsys != nil {
		openFiles.publish(key, sf)
	}
	return sf, nil
}

// unchanged reports whether path still names the file sf loaded, at its
// loaded size, and the footer read back from it still carries the
// checksum the load found: the file is the one its views describe.
func (sf *segFile) unchanged(fsys fsio.FS) bool {
	st, err := fsys.Stat(sf.path)
	if err != nil || st.Size() != sf.size || !os.SameFile(st, sf.info) {
		return false
	}
	foot := make([]byte, footerLen(len(sf.funcs)))
	if _, err := sf.read(foot, sf.size-int64(len(foot))); err != nil {
		return false
	}
	rows, crc := foot[:len(foot)-4], binary.LittleEndian.Uint32(foot[len(foot)-4:])
	return crc == sf.footerCRC && crc32.ChecksumIEEE(rows) == crc
}

// release drops one hold on sf; the last one closes the file.
func (sf *segFile) release() error {
	if !openFiles.release(sf) {
		return nil
	}
	return sf.f.Close()
}
