package index

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzManifestParse checks that manifest parsing is total: arbitrary
// bytes — including torn prefixes of a valid manifest, the write state
// a crash mid-commit can leave behind — either parse to a validated
// manifest or return an error, and never panic. Any accepted input
// must satisfy the invariants the rest of the index lifecycle assumes.
func FuzzManifestParse(f *testing.F) {
	valid, err := json.MarshalIndent(newManifest(Meta{K: 2, T: 4, Seed: 7, NumTexts: 3}, segSum{size: 384, footerCRC: 5}), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add([]byte("{}"))
	// Version-1 (pre-segment) shapes are no longer read: rejected, never
	// panicking.
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":1,"t":2},"files":[{"name":"index.000","size":64}]}`))
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":1,"t":2},"files":[{}]}`))
	f.Add([]byte(`{"format_version":1,"build_id":"x","meta":{"k":-1,"t":2}}`))
	// Version-2 (one file per function) shapes are no longer read either.
	f.Add([]byte(`{"format_version":2,"build_id":"x","meta":{"k":1,"t":2,"seed":3,"num_texts":5},` +
		`"segments":[{"name":"","meta":{"k":1,"t":2,"seed":3,"num_texts":2},"files":[{"name":"index.000"}]},` +
		`{"name":"seg-000001","meta":{"k":1,"t":2,"seed":3,"num_texts":3},"files":[{"name":"index.000"}],` +
		`"tombstone":{"name":"tomb-seg-000001-ab","deleted":1,"crc32":9}}]}`))
	f.Add([]byte(`{"format_version":2,"build_id":"x","meta":{"k":1,"t":2},"segments":[{"name":"../evil","meta":{"k":1,"t":2}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	// Multi-segment and tombstoned shapes.
	f.Add([]byte(`{"format_version":3,"build_id":"x","meta":{"k":1,"t":2,"seed":3,"num_texts":5},` +
		`"segments":[{"name":"seg-000000","meta":{"k":1,"t":2,"seed":3,"num_texts":2},"size":64,"footer_crc32":1},` +
		`{"name":"seg-000001","meta":{"k":1,"t":2,"seed":3,"num_texts":3},"size":80,"footer_crc32":2,` +
		`"tombstone":{"name":"tomb-seg-000001-ab","deleted":1,"crc32":9}}]}`))
	f.Add([]byte(`{"format_version":3,"build_id":"x","meta":{"k":1,"t":2},"segments":[{"name":"","meta":{"k":1,"t":2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with non-nil manifest", err)
			}
			return
		}
		if m.FormatVersion != manifestFormatVersion {
			t.Fatalf("accepted format version %d", m.FormatVersion)
		}
		if m.BuildID == "" {
			t.Fatal("accepted manifest without build id")
		}
		if m.Meta.K <= 0 || m.Meta.T <= 0 {
			t.Fatalf("accepted invalid meta k=%d t=%d", m.Meta.K, m.Meta.T)
		}
		if len(m.Segments) == 0 {
			t.Fatal("accepted manifest without segments")
		}
		texts, tokens := 0, int64(0)
		for _, seg := range m.Segments {
			if !validEntryName(seg.Name) {
				t.Fatalf("accepted segment name %q", seg.Name)
			}
			if seg.Meta.K != m.Meta.K || seg.Meta.Seed != m.Meta.Seed || seg.Meta.T != m.Meta.T {
				t.Fatalf("accepted mixed build options: segment %q %+v vs aggregate %+v", seg.Name, seg.Meta, m.Meta)
			}
			if tomb := seg.Tomb; tomb != nil && (tomb.Deleted <= 0 || tomb.Deleted > seg.Meta.NumTexts) {
				t.Fatalf("accepted tombstone marking %d of %d texts", tomb.Deleted, seg.Meta.NumTexts)
			}
			texts += seg.Meta.NumTexts
			tokens += seg.Meta.TotalTokens
		}
		if m.Meta.NumTexts != texts || m.Meta.TotalTokens != tokens {
			t.Fatalf("accepted aggregate (%d texts, %d tokens) inconsistent with segments (%d, %d)",
				m.Meta.NumTexts, m.Meta.TotalTokens, texts, tokens)
		}
		// Round-trip: a parsed manifest re-encodes and re-parses to the
		// same validated value.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := parseManifest(out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round-trip changed manifest: %+v vs %+v", m, m2)
		}
	})
}

// FuzzTombstoneParse checks that tombstone parsing is total over the
// bytes a torn or stale bitmap file can hold, and that whatever it
// accepts is exactly what the manifest record promised: the recorded
// CRC, the segment's text count, want.Deleted ids marked and none of
// them beyond the segment. fixCRC lets the fuzzer get past the checksum
// gate (it cannot guess a CRC-32) to the structural checks behind it.
func FuzzTombstoneParse(f *testing.F) {
	ts := newTombSet(11)
	ts.set(0)
	ts.set(10)
	valid, crc := encodeTombstone(ts)
	f.Add(valid, 11, 2, crc, false)
	f.Add(valid, 11, 2, crc+1, false)                   // stale manifest record
	f.Add(valid, 12, 2, crc, false)                     // bitmap of another segment
	f.Add(valid, 11, 3, crc, false)                     // wrong deleted count
	f.Add(valid[:len(valid)-1], 11, 2, uint32(0), true) // torn write
	f.Add(valid[:len(tombMagic)+2], 11, 2, uint32(0), true)
	padded := bytes.Clone(valid)
	padded[len(padded)-1] |= 0x80 // id 15 of an 11-text segment
	f.Add(padded, 11, 3, uint32(0), true)
	f.Add([]byte{}, 0, 0, uint32(0), true)
	f.Fuzz(func(t *testing.T, data []byte, numTexts, deleted int, crc uint32, fixCRC bool) {
		if fixCRC {
			crc = crc32.ChecksumIEEE(data)
		}
		want := &ManifestTombstone{Name: "tomb-fuzz", Deleted: deleted, CRC: crc}
		ts, err := parseTombstone(data, want, numTexts)
		if err != nil {
			if ts != nil {
				t.Fatalf("error %v with non-nil bitmap", err)
			}
			return
		}
		if got := crc32.ChecksumIEEE(data); got != want.CRC {
			t.Fatalf("accepted bytes with crc %08x, manifest records %08x", got, want.CRC)
		}
		if ts.n != numTexts {
			t.Fatalf("accepted a bitmap over %d texts for a segment of %d", ts.n, numTexts)
		}
		marked := 0
		for id := 0; id < 8*len(ts.bits); id++ {
			if ts.bits[id>>3]&(1<<(id&7)) == 0 {
				continue
			}
			if id >= numTexts {
				t.Fatalf("accepted a bitmap marking id %d of a %d-text segment", id, numTexts)
			}
			if !ts.has(uint32(id)) {
				t.Fatalf("has(%d) is false for a set bit", id)
			}
			marked++
		}
		if marked != want.Deleted || ts.count() != marked {
			t.Fatalf("accepted %d marked ids (count() %d), manifest records %d", marked, ts.count(), want.Deleted)
		}
		if out, _ := encodeTombstone(ts); !bytes.Equal(out, data) {
			t.Fatalf("accepted bytes do not re-encode to themselves")
		}
	})
}
