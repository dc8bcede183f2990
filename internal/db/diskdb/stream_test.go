package diskdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb/faultfile"
)

// appendRecord appends the frame for one record to dst: the model framing
// tests hand-build segments with.
func appendRecord(dst []byte, kind byte, key, value []byte) []byte {
	return appendFrame(dst, kind, key, value)
}

// appendPut appends the one-op committed group a one-op batch writes.
func appendPut(dst []byte, key, value string) []byte {
	return append(dst, modelGroup([]batchOp{{key: key, value: []byte(value)}})...)
}

// groupOps is a batch spanning several chunks: small values around one
// value larger than a chunk, which is streamed through the buffer.
func groupOps() []batchOp {
	var ops []batchOp
	for i := 0; i < 40; i++ {
		ops = append(ops, batchOp{key: fmt.Sprintf("small%02d", i), value: bytes.Repeat([]byte{byte(i)}, 48<<10)})
		if i == 17 {
			ops = append(ops, batchOp{key: "huge", value: bytes.Repeat([]byte{0xEE}, chunkBytes+chunkBytes/2)})
		}
		if i%9 == 0 {
			ops = append(ops, batchOp{key: fmt.Sprintf("gone%02d", i), del: true})
		}
	}
	return ops
}

// modelGroup frames a group the way one whole-group buffer would.
func modelGroup(ops []batchOp) []byte {
	var buf []byte
	for _, op := range ops {
		kind := recStagedPut
		if op.del {
			kind = recStagedDel
		}
		buf = appendRecord(buf, kind, []byte(op.key), op.value)
	}
	return appendRecord(buf, recCommit, nil, binary.BigEndian.AppendUint32(nil, uint32(len(ops))))
}

func writeOps(kv db.KV, ops []batchOp) error {
	b := kv.NewBatch()
	for _, op := range ops {
		if op.del {
			b.Delete([]byte(op.key))
		} else {
			b.Put([]byte(op.key), op.value)
		}
	}
	return b.Write()
}

// segmentBytes reads a whole segment file off the medium.
func segmentBytes(t *testing.T, fs FS, id uint64) []byte {
	t.Helper()
	f, err := fs.Open(segName(id))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// appendLog records the size of every append and, when arm is set, runs
// it before the append with that append's 0-based index since arming.
type appendLog struct {
	FS
	sizes []int
	arm   func(i int) (undo func())
}

func (l *appendLog) Open(name string) (File, error) {
	f, err := l.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &loggedFile{File: f, log: l}, nil
}

type loggedFile struct {
	File
	log *appendLog
}

func (f *loggedFile) Append(p []byte) (int, error) {
	l := f.log
	if l.arm != nil {
		defer l.arm(len(l.sizes))()
	}
	l.sizes = append(l.sizes, len(p))
	return f.File.Append(p)
}

// TestGroupAppendsInChunks: a group larger than a chunk goes down as
// several appends of at most chunkBytes, then one fsync, and the segment
// holds exactly the bytes one whole-group buffer would have written.
func TestGroupAppendsInChunks(t *testing.T) {
	log := &appendLog{FS: dbfs.NewMemFS()}
	d, err := Open(log, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ops := groupOps()
	want := modelGroup(ops)
	if err := writeOps(d, ops); err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, log, 1); !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, want the %d of one whole-group buffer (equal: %v)", len(got), len(want), bytes.Equal(got, want))
	}
	if n := len(log.sizes); n < len(want)/chunkBytes+1 {
		t.Fatalf("%d appends for a %d-byte group, want at least %d", n, len(want), len(want)/chunkBytes+1)
	}
	for i, n := range log.sizes {
		if n > chunkBytes {
			t.Fatalf("append %d is %d bytes, over the %d-byte chunk", i, n, chunkBytes)
		}
	}
	for _, op := range ops {
		if op.del {
			mustAbsent(t, d, op.key)
		} else {
			mustGet(t, d, op.key, string(op.value))
		}
	}
}

// TestChunkBoundaryFaults fails, shortens or tears each chunk append of a
// multi-chunk group in turn. Every time the store is left at its
// pre-batch state, a reopen replays none of the group, and a db.Retry
// re-append lands exactly the bytes of a clean write.
func TestChunkBoundaryFaults(t *testing.T) {
	ops := groupOps()
	group := modelGroup(ops)
	chunks := 0
	{
		log := &appendLog{FS: dbfs.NewMemFS()}
		d, err := Open(log, Options{SegmentBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeOps(d, ops); err != nil {
			t.Fatal(err)
		}
		d.Close()
		chunks = len(log.sizes)
	}
	for k := 0; k < chunks; k++ {
		for _, kind := range []string{"ioerr", "short", "torn"} {
			t.Run(fmt.Sprintf("chunk%d/%s", k, kind), func(t *testing.T) {
				plan := faultfile.Faults{Seed: int64(k)}
				switch kind {
				case "ioerr":
					plan.WriteErrRate = 1
				case "short":
					plan.ShortWriteRate = 1
				}
				ffs := faultfile.Wrap(dbfs.NewMemFS(), plan)
				ffs.SetEnabled(false)
				log := &appendLog{FS: ffs}
				d, err := Open(log, Options{SegmentBytes: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				mustPut(t, d, "durable", "yes")
				before := segmentBytes(t, ffs, 1)

				log.sizes = nil
				if kind == "torn" {
					ffs.CrashAtWriteOp(ffs.WriteOps() + uint64(k) + 1)
				} else {
					log.arm = func(i int) func() {
						if i != k {
							return func() {}
						}
						ffs.SetEnabled(true)
						return func() { ffs.SetEnabled(false) }
					}
				}
				err = writeOps(d, ops)
				log.arm = nil
				switch {
				case err == nil:
					t.Fatal("faulted group write succeeded")
				case kind == "torn":
					if !ffs.Crashed() {
						t.Fatalf("medium did not crash: %v", err)
					}
					d.Close()
					ffs.Reopen()
				default:
					if !db.IsTransient(err) {
						t.Fatalf("Write = %v, want a transient error", err)
					}
					if got := segmentBytes(t, ffs, 1); !bytes.Equal(got, before) {
						t.Fatalf("segment is %d bytes after the failed write, want the pre-batch %d", len(got), len(before))
					}
					mustAbsent(t, d, "small00")
					d.Close()
				}
				if len(log.sizes) != k+1 {
					t.Fatalf("fault at chunk %d stopped after %d appends", k, len(log.sizes))
				}

				re, err := Open(ffs, Options{SegmentBytes: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := segmentBytes(t, ffs, 1); !bytes.Equal(got, before) {
					t.Fatalf("reopened segment is %d bytes, want the pre-batch %d", len(got), len(before))
				}
				mustGet(t, re, "durable", "yes")
				for _, op := range ops {
					mustAbsent(t, re, op.key)
				}
				if err := writeOps(db.NewRetry(re, 4), ops); err != nil {
					t.Fatalf("re-append through db.Retry: %v", err)
				}
				if got := segmentBytes(t, ffs, 1); !bytes.Equal(got, append(before, group...)) {
					t.Fatal("re-appended segment differs from a clean write")
				}
				mustGet(t, re, "huge", string(bytes.Repeat([]byte{0xEE}, chunkBytes+chunkBytes/2)))
			})
		}
	}
}

// TestLargeBatchAllocs: writing a 64 MiB batch allocates a chunk buffer,
// not a second copy of its values.
func TestLargeBatchAllocs(t *testing.T) {
	for _, shape := range []struct{ n, size int }{{64, 1 << 20}, {1024, 64 << 10}} {
		t.Run(fmt.Sprintf("%dx%dKiB", shape.n, shape.size>>10), func(t *testing.T) {
			d, _ := openTmp(t, Options{SegmentBytes: 128 << 20})
			defer d.Close()
			values := make([][]byte, shape.n)
			for i := range values {
				values[i] = bytes.Repeat([]byte{byte(i)}, shape.size)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b := d.NewBatch()
			for i, v := range values {
				b.Put([]byte(fmt.Sprintf("k%04d", i)), v)
			}
			if err := b.Write(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
				t.Errorf("a %d MiB batch allocated %d KiB beyond its values, want < 4 MiB", shape.n*shape.size>>20, grew>>10)
			}
		})
	}
}
