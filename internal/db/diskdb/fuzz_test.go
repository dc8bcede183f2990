package diskdb

import (
	"bytes"
	"testing"

	"forkwatch/internal/db/dbfs"
)

// FuzzDecodeRecord drives the segment-record decoder with arbitrary
// bytes: it must never panic, never claim to consume more bytes than it
// was given, and must round-trip everything appendRecord produces.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendRecord(nil, recPut, []byte("key"), []byte("value")))
	f.Add(appendRecord(nil, recDel, []byte("gone"), nil))
	f.Add(appendRecord(nil, recStagedPut, []byte("s"), bytes.Repeat([]byte{0xAA}, 100)))
	f.Add(appendRecord(nil, recCommit, nil, []byte{0, 0, 0, 2}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	torn := appendRecord(nil, recPut, []byte("torn"), []byte("tail"))
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if n < 0 || n > len(data)+maxPayload {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err == nil {
			if n > len(data) {
				t.Fatalf("valid record consumed %d > %d available bytes", n, len(data))
			}
			if rec.kind < recPut || rec.kind > recCommit {
				t.Fatalf("valid record with kind %d", rec.kind)
			}
			// A decoded record must re-encode to the exact same frame.
			again := appendRecord(nil, rec.kind, rec.key, rec.value)
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data[:n])
			}
		}
	})
}

// FuzzScanSegment replays arbitrary bytes as a whole segment through a
// store open: whatever the medium holds, Open must not panic and must
// leave a store that reads and writes.
func FuzzScanSegment(f *testing.F) {
	clean := appendRecord(nil, recPut, []byte("a"), []byte("1"))
	clean = appendRecord(clean, recStagedPut, []byte("b"), []byte("2"))
	clean = appendRecord(clean, recCommit, nil, []byte{0, 0, 0, 1})
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := dbfs.NewMemFS()
		seg, _ := fs.Open(segName(1))
		seg.Append(data)
		d, err := Open(fs, Options{})
		if err != nil {
			return // an unreadable medium may refuse to open; it must not panic
		}
		defer d.Close()
		if err := putKV(d, []byte("post-open"), []byte("works")); err != nil {
			t.Fatalf("write after scanning arbitrary segment: %v", err)
		}
		v, ok, err := d.Get([]byte("post-open"))
		if err != nil || !ok || string(v) != "works" {
			t.Fatalf("Get after scanning arbitrary segment: %q %v %v", v, ok, err)
		}
	})
}
