package diskdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb/faultfile"
)

func openTmp(t *testing.T, opts Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	d := reopenDir(t, dir, opts)
	return d, dir
}

func reopenDir(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	fs, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

// putKV writes one key through a one-op batch.
func putKV(kv db.KV, k, v []byte) error {
	b := kv.NewBatch()
	b.Put(k, v)
	return b.Write()
}

// deleteKV removes one key through a one-op batch.
func deleteKV(kv db.KV, k []byte) error {
	b := kv.NewBatch()
	b.Delete(k)
	return b.Write()
}

func mustPut(t *testing.T, d *DB, k, v string) {
	t.Helper()
	if err := putKV(d, []byte(k), []byte(v)); err != nil {
		t.Fatalf("put %q: %v", k, err)
	}
}

func mustDelete(t *testing.T, d *DB, k string) {
	t.Helper()
	if err := deleteKV(d, []byte(k)); err != nil {
		t.Fatalf("delete %q: %v", k, err)
	}
}

func mustGet(t *testing.T, d *DB, k, want string) {
	t.Helper()
	v, ok, err := d.Get([]byte(k))
	if err != nil || !ok || string(v) != want {
		t.Fatalf("Get(%q) = %q %v %v, want %q", k, v, ok, err, want)
	}
}

func mustAbsent(t *testing.T, d *DB, k string) {
	t.Helper()
	if v, ok, err := d.Get([]byte(k)); err != nil || ok {
		t.Fatalf("Get(%q) = %q %v %v, want absent", k, v, ok, err)
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	d, dir := openTmp(t, Options{})
	mustPut(t, d, "alpha", "1")
	mustPut(t, d, "beta", "2")
	mustPut(t, d, "alpha", "3") // supersede
	mustDelete(t, d, "beta")
	mustDelete(t, d, "never-existed")
	mustGet(t, d, "alpha", "3")
	mustAbsent(t, d, "beta")
	if ok, err := d.Has([]byte("alpha")); err != nil || !ok {
		t.Fatalf("Has(alpha) = %v %v", ok, err)
	}
	if ok, err := d.Has([]byte("beta")); err != nil || ok {
		t.Fatalf("Has(beta) = %v %v, want deleted", ok, err)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Every write was a batch: the segment holds staged records and
	// commit records only, one group per write.
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for off := 0; off < len(raw); {
		rec, n, err := decodeRecord(raw[off:])
		if err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		switch rec.kind {
		case recStagedPut, recStagedDel:
		case recCommit:
			commits++
		default:
			t.Fatalf("record at %d has kind %d, want only staged and commit records", off, rec.kind)
		}
		off += n
	}
	if commits != 5 {
		t.Fatalf("segment holds %d commit records, want 5", commits)
	}

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "alpha", "3")
	mustAbsent(t, re, "beta")
	if st := re.Stats(); st.Repairs != 0 {
		t.Fatalf("clean reopen counted %d repairs", st.Repairs)
	}
}

// TestPlainRecordsReplay: segments written by earlier builds hold plain
// put and tombstone records, each committed on its own. Nothing writes
// them any more, but such an archive reopens with newest-wins replay,
// serves their values, and takes batches on top.
func TestPlainRecordsReplay(t *testing.T) {
	d, dir := openTmp(t, Options{})
	d.Close()
	old := appendRecord(nil, recPut, []byte("alpha"), []byte("1"))
	old = appendRecord(old, recPut, []byte("beta"), []byte("2"))
	old = appendRecord(old, recPut, []byte("alpha"), []byte("3"))
	old = appendRecord(old, recDel, []byte("beta"), nil)
	old = appendRecord(old, recPut, []byte("gamma"), []byte("4"))
	appendRaw(t, dir, 1, old)

	re := reopenDir(t, dir, Options{})
	mustGet(t, re, "alpha", "3")
	mustAbsent(t, re, "beta")
	mustGet(t, re, "gamma", "4")
	if st := re.Stats(); st.Entries != 2 || st.Repairs != 0 {
		t.Fatalf("Entries = %d Repairs = %d, want 2 live keys and a clean replay", st.Entries, st.Repairs)
	}
	mustPut(t, re, "beta", "5")
	mustDelete(t, re, "gamma")
	re.Close()

	re2 := reopenDir(t, dir, Options{})
	defer re2.Close()
	mustGet(t, re2, "alpha", "3")
	mustGet(t, re2, "beta", "5")
	mustAbsent(t, re2, "gamma")
	if st := re2.Stats(); st.Entries != 2 || st.Repairs != 0 {
		t.Fatalf("Entries = %d Repairs = %d after batches on a plain segment", st.Entries, st.Repairs)
	}
}

// TestPlainRecordInterruptsGroup: a plain record between a staged group
// and its commit record drops the group (and then the commit, which no
// longer follows a group), while the plain record itself replays.
func TestPlainRecordInterruptsGroup(t *testing.T) {
	d, dir := openTmp(t, Options{})
	mustPut(t, d, "safe", "durable")
	d.Close()

	group := appendRecord(nil, recStagedPut, []byte("ghost"), []byte("x"))
	group = appendRecord(group, recPut, []byte("plain"), []byte("p"))
	group = appendRecord(group, recCommit, nil, []byte{0, 0, 0, 1})
	appendRaw(t, dir, 1, group)

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "safe", "durable")
	mustGet(t, re, "plain", "p")
	mustAbsent(t, re, "ghost")
	if st := re.Stats(); st.Repairs != 2 {
		t.Fatalf("Repairs = %d, want 2 (the interrupted group, the stray commit)", st.Repairs)
	}
}

func TestBatchCommitAndReopen(t *testing.T) {
	d, dir := openTmp(t, Options{})
	mustPut(t, d, "pre", "x")
	b := d.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("pre"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("batch not reset after Write")
	}
	mustGet(t, d, "k1", "v1")
	mustGet(t, d, "k2", "v2")
	mustAbsent(t, d, "pre")
	d.Close()

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "k1", "v1")
	mustGet(t, re, "k2", "v2")
	mustAbsent(t, re, "pre")
}

func TestRotationSpansSegments(t *testing.T) {
	d, dir := openTmp(t, Options{SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		mustPut(t, d, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
	if d.Segments() < 2 {
		t.Fatalf("no rotation happened: %d segment(s)", d.Segments())
	}
	d.Close()

	re := reopenDir(t, dir, Options{SegmentBytes: 256})
	defer re.Close()
	for i := 0; i < 40; i++ {
		mustGet(t, re, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
}

// appendRaw writes raw bytes to the end of a segment file on disk,
// bypassing the store (simulating a torn append).
func appendRaw(t *testing.T, dir string, seg uint64, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, segName(seg)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncatedOnOpen: an earlier build's segment of plain
// records whose last append tore.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	d, dir := openTmp(t, Options{})
	d.Close()

	// Half a frame: a valid header claiming more payload than exists.
	raw := appendRecord(nil, recPut, []byte("safe"), []byte("durable"))
	torn := appendRecord(nil, recPut, []byte("torn"), []byte("lost-value"))
	appendRaw(t, dir, 1, append(raw, torn[:len(torn)-4]...))

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "safe", "durable")
	mustAbsent(t, re, "torn")
	if st := re.Stats(); st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", st.Repairs)
	}
	// The truncation must be durable: a second reopen sees a clean file.
	re.Close()
	re2 := reopenDir(t, dir, Options{})
	defer re2.Close()
	if st := re2.Stats(); st.Repairs != 0 {
		t.Fatalf("repair did not stick: %d repairs on second open", st.Repairs)
	}
	mustGet(t, re2, "safe", "durable")
}

func TestUncommittedGroupDroppedOnOpen(t *testing.T) {
	d, dir := openTmp(t, Options{})
	mustPut(t, d, "safe", "durable")
	d.Close()

	// Staged records with no commit marker: the batch never committed.
	group := appendRecord(nil, recStagedPut, []byte("ghost1"), []byte("x"))
	group = appendRecord(group, recStagedPut, []byte("ghost2"), []byte("y"))
	appendRaw(t, dir, 1, group)

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "safe", "durable")
	mustAbsent(t, re, "ghost1")
	mustAbsent(t, re, "ghost2")
	if st := re.Stats(); st.Repairs == 0 {
		t.Fatal("uncommitted group dropped without counting a repair")
	}
}

func TestCommitCountMismatchDropsGroup(t *testing.T) {
	d, dir := openTmp(t, Options{})
	mustPut(t, d, "safe", "durable")
	d.Close()

	// A commit record claiming 3 staged ops when only 1 precedes it.
	group := appendRecord(nil, recStagedPut, []byte("ghost"), []byte("x"))
	group = appendRecord(group, recCommit, nil, []byte{0, 0, 0, 3})
	appendRaw(t, dir, 1, group)

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustGet(t, re, "safe", "durable")
	mustAbsent(t, re, "ghost")
	if st := re.Stats(); st.Repairs == 0 {
		t.Fatal("mismatched commit accepted without a repair")
	}
}

// TestChecksumSkipMidFile: a rotted plain record mid-file is skipped and
// the records after it replay.
func TestChecksumSkipMidFile(t *testing.T) {
	d, dir := openTmp(t, Options{})
	d.Close()
	raw := appendRecord(nil, recPut, []byte("victim"), []byte("will-rot"))
	appendRaw(t, dir, 1, appendRecord(raw, recPut, []byte("survivor"), []byte("fine")))

	// Rot one bit inside the first record's value, mid-file.
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := frameSize([]byte("victim"), []byte("will-rot"))
	raw[first-2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := reopenDir(t, dir, Options{})
	defer re.Close()
	mustAbsent(t, re, "victim") // rotted record skipped, no older version
	mustGet(t, re, "survivor", "fine")
	if st := re.Stats(); st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", st.Repairs)
	}
}

// TestSupersededRecordsAcrossSegments: with no compaction pass, older
// versions and deleted keys stay in their segments for good, so replay
// order alone must decide — the newest record of a key wins on reopen and
// a tombstone in a later segment hides every earlier put.
func TestSupersededRecordsAcrossSegments(t *testing.T) {
	d, dir := openTmp(t, Options{SegmentBytes: 128})
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			mustPut(t, d, fmt.Sprintf("k%d", i), fmt.Sprintf("r%d-%d", round, i))
		}
	}
	mustDelete(t, d, "k3")
	segs := d.Segments()
	if segs < 2 {
		t.Fatalf("want the versions spread over several segments, have %d", segs)
	}
	d.Close()

	re := reopenDir(t, dir, Options{SegmentBytes: 128})
	defer re.Close()
	if re.Segments() != segs {
		t.Fatalf("Segments after reopen = %d, want %d (nothing removes one)", re.Segments(), segs)
	}
	for i := 0; i < 10; i++ {
		if i == 3 {
			mustAbsent(t, re, "k3")
			continue
		}
		mustGet(t, re, fmt.Sprintf("k%d", i), fmt.Sprintf("r4-%d", i))
	}
	if st := re.Stats(); st.Entries != 9 || st.Repairs != 0 {
		t.Fatalf("Entries = %d Repairs = %d, want 9 live keys and a clean replay", st.Entries, st.Repairs)
	}
}

func TestCrashTornAppendRecovers(t *testing.T) {
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{Seed: 7})
	d, err := Open(ffs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "durable", "yes")

	// Crash on the next append: the batch tears mid-buffer.
	ffs.CrashAtWriteOp(ffs.WriteOps() + 1)
	b := d.NewBatch()
	b.Put([]byte("t1"), bytes.Repeat([]byte("a"), 100))
	b.Put([]byte("t2"), bytes.Repeat([]byte("b"), 100))
	if err := b.Write(); !errors.Is(err, faultfile.ErrCrashed) &&
		!errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("torn batch Write = %v, want crash or read-only degrade", err)
	}
	if !ffs.Crashed() {
		t.Fatal("medium did not crash")
	}
	d.Close()

	ffs.Reopen()
	re, err := Open(ffs, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer re.Close()
	mustGet(t, re, "durable", "yes")
	mustAbsent(t, re, "t1")
	mustAbsent(t, re, "t2")
	// And the store accepts writes again on the reopened medium.
	mustPut(t, re, "after", "restart")
	mustGet(t, re, "after", "restart")
}

func TestRetryAbsorbsInjectedFaults(t *testing.T) {
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{
		Seed:           42,
		ReadErrRate:    0.2,
		WriteErrRate:   0.2,
		ShortWriteRate: 0.05,
		CorruptRate:    0.05,
	})
	d, err := Open(ffs, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	kv := db.NewRetry(d, 64)
	for i := 0; i < 60; i++ {
		if err := putKV(kv, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatalf("put through faults: %v", err)
		}
	}
	for i := 0; i < 60; i++ {
		v, ok, err := kv.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("Get(k%02d) through faults = %q %v %v", i, v, ok, err)
		}
	}
	d.Close()

	// The medium under the faults holds a consistent store.
	ffs.SetEnabled(false)
	re, err := Open(ffs, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 60; i++ {
		mustGet(t, re, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
}

// TestRetryAbsorbsInjectedErrors: at a 50% error rate on every read,
// append and sync, each kind of store operation — Get, Has, and batch
// Writes of puts, deletes and both — still succeeds through db.Retry.
func TestRetryAbsorbsInjectedErrors(t *testing.T) {
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{Seed: 11, ReadErrRate: 0.5, WriteErrRate: 0.5})
	d, err := Open(ffs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A write needs its append and its sync to pass: 1/4 per attempt, so
	// 64 attempts all fail with probability ~1e-8. The seed is fixed, so
	// the run either always passes or always fails.
	kv := db.NewRetry(d, 64)
	for i := 0; i < 40; i++ {
		key := []byte{0x70, byte(i)}
		if err := putKV(kv, key, []byte{byte(i)}); err != nil {
			t.Fatalf("put %d through retry: %v", i, err)
		}
		v, ok, err := kv.Get(key)
		if err != nil || !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get %d through retry: %v %v %v", i, v, ok, err)
		}
		b := kv.NewBatch()
		b.Put([]byte{0x71, byte(i)}, []byte{byte(i)})
		b.Delete(key)
		if err := b.Write(); err != nil {
			t.Fatalf("batch %d through retry: %v", i, err)
		}
		if ok, err := kv.Has(key); err != nil || ok {
			t.Fatalf("Has %d after batch delete: %v %v, want absent", i, ok, err)
		}
		if ok, err := kv.Has([]byte{0x71, byte(i)}); err != nil || !ok {
			t.Fatalf("Has %d after batch put: %v %v, want present", i, ok, err)
		}
		if err := deleteKV(kv, []byte{0x71, byte(i)}); err != nil {
			t.Fatalf("delete %d through retry: %v", i, err)
		}
	}
	if len(ffs.Journal()) == 0 {
		t.Fatal("plan injected nothing")
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0 after every key was deleted", st.Entries)
	}
}

// faultWorkload runs a fixed operation sequence against a store on a
// medium under plan, rebuilding the store whenever the medium crashes,
// and returns how many operations failed and the medium's fault journal.
func faultWorkload(t *testing.T, plan faultfile.Faults) (int, []faultfile.Event) {
	t.Helper()
	ffs := faultfile.Wrap(dbfs.NewMemFS(), plan)
	open := func() *DB {
		// Recovery runs with injection paused, as the chaos harnesses do.
		ffs.SetEnabled(false)
		defer ffs.SetEnabled(true)
		d, err := Open(ffs, Options{SegmentBytes: 512})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return d
	}
	d := open()
	failures := 0
	for i := 0; i < 400; i++ {
		key := []byte{byte(i), byte(i >> 8)}
		val := bytes.Repeat([]byte{byte(i)}, 8)
		var err error
		switch i % 4 {
		case 0:
			err = putKV(d, key, val)
		case 1:
			_, _, err = d.Get(key)
		case 2:
			b := d.NewBatch()
			b.Put(key, val)
			b.Put(append(key, 0xff), val)
			err = b.Write()
		case 3:
			_, err = d.Has(key)
		}
		if err != nil {
			failures++
		}
		if ffs.Crashed() {
			d.Close()
			ffs.Reopen()
			d = open()
		}
	}
	d.Close()
	return failures, ffs.Journal()
}

// TestDeterminism: the same seed drives a store through the same
// failures and the same fault journal, crashes and recoveries included;
// another seed does not.
func TestDeterminism(t *testing.T) {
	plan := faultfile.Faults{Seed: 42, ReadErrRate: 0.2, WriteErrRate: 0.2, TornWriteRate: 0.05, CorruptRate: 0.05}
	failsA, ja := faultWorkload(t, plan)
	failsB, jb := faultWorkload(t, plan)
	if failsA != failsB {
		t.Fatalf("same seed diverged: %d vs %d failures", failsA, failsB)
	}
	if failsA == 0 {
		t.Fatal("fault plan failed no operation")
	}
	if !reflect.DeepEqual(ja, jb) {
		t.Fatalf("same seed produced different journals: %d vs %d events", len(ja), len(jb))
	}
	reopens := 0
	for _, ev := range ja {
		if ev.Kind == "reopen" {
			reopens++
		}
	}
	if reopens == 0 {
		t.Fatal("plan never crashed the medium; the workload did not exercise recovery")
	}

	plan.Seed = 43
	if _, jc := faultWorkload(t, plan); reflect.DeepEqual(ja, jc) {
		t.Fatal("different seeds produced identical journals")
	}
}

// countingKV counts the batch Writes that reach the store, to observe
// how often a db.Retry above it re-issues one.
type countingKV struct {
	db.KV
	writes int
}

func (c *countingKV) NewBatch() db.Batch { return &countingBatch{Batch: c.KV.NewBatch(), c: c} }

type countingBatch struct {
	db.Batch
	c *countingKV
}

func (b *countingBatch) Write() error {
	b.c.writes++
	return b.Batch.Write()
}

// TestRetryPassesCrashThrough: a crashed medium fails a write for good,
// so db.Retry hands the error back after one attempt.
func TestRetryPassesCrashThrough(t *testing.T) {
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{Seed: 13})
	d, err := Open(ffs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	counter := &countingKV{KV: d}
	ffs.Crash()
	if err := putKV(db.NewRetry(counter, 10), []byte("k"), []byte("v")); err == nil || db.IsTransient(err) {
		t.Fatalf("write on a crashed medium through retry = %v, want a permanent error", err)
	}
	if counter.writes != 1 {
		t.Fatalf("retry issued %d attempts against a crashed medium, want 1 (fatal errors pass through)", counter.writes)
	}
}

// brickFS fails every append non-transiently after a budget of writes,
// with truncate broken too: the unwritable-disk scenario that must
// degrade to read-only instead of panicking.
type brickFS struct {
	inner   FS
	budget  int
	bricked bool
}

var errBricked = errors.New("medium bricked")

func (b *brickFS) Open(name string) (File, error) {
	f, err := b.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &brickFile{fs: b, inner: f}, nil
}
func (b *brickFS) List() ([]string, error) { return b.inner.List() }

type brickFile struct {
	fs    *brickFS
	inner File
}

func (f *brickFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *brickFile) Append(p []byte) (int, error) {
	if f.fs.budget <= 0 {
		f.fs.bricked = true
		return 0, errBricked
	}
	f.fs.budget--
	return f.inner.Append(p)
}
func (f *brickFile) Truncate(size int64) error {
	if f.fs.bricked {
		return errBricked
	}
	return f.inner.Truncate(size)
}
func (f *brickFile) Sync() error          { return f.inner.Sync() }
func (f *brickFile) Size() (int64, error) { return f.inner.Size() }
func (f *brickFile) Close() error         { return f.inner.Close() }

func TestDegradeToReadOnly(t *testing.T) {
	bfs := &brickFS{inner: dbfs.NewMemFS(), budget: 3}
	d, err := Open(bfs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustPut(t, d, "a", "1")
	mustPut(t, d, "b", "2")
	mustPut(t, d, "c", "3")

	err = putKV(d, []byte("d"), []byte("4"))
	if !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("write on bricked medium = %v, want ErrReadOnly", err)
	}
	if db.IsTransient(err) {
		t.Fatal("ErrReadOnly must not be transient (retrying a dead disk is pointless)")
	}
	// Every further write fails the same way.
	if err := deleteKV(d, []byte("a")); !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("delete after degrade = %v", err)
	}
	b := d.NewBatch()
	b.Put([]byte("e"), []byte("5"))
	b.Delete([]byte("b"))
	if err := b.Write(); !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("batch Write after degrade = %v", err)
	}
	if ro, cause := d.ReadOnly(); !ro || cause == nil {
		t.Fatalf("ReadOnly() = %v %v", ro, cause)
	}
	// Reads keep serving the archive.
	mustGet(t, d, "a", "1")
	mustGet(t, d, "b", "2")
	mustGet(t, d, "c", "3")
	mustAbsent(t, d, "d")
}

func TestOpenThroughDBConfig(t *testing.T) {
	dir := t.TempDir()
	kv, err := db.Open(db.Config{Backend: db.BackendDisk, DataDir: dir})
	if err != nil {
		t.Fatalf("db.Open(disk): %v", err)
	}
	if err := putKV(kv, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if d, ok := kv.(*DB); !ok {
		t.Fatalf("db.Open(disk) = %T, want *diskdb.DB", kv)
	} else {
		d.Close()
	}

	re, err := db.Open(db.Config{Backend: db.BackendDisk, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := re.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("persisted Get = %q %v %v", v, ok, err)
	}
	re.(*DB).Close()
}

func TestClosedStoreRefusesUse(t *testing.T) {
	d, _ := openTmp(t, Options{})
	mustPut(t, d, "k", "v")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get([]byte("k")); !errors.Is(err, errClosed) {
		t.Fatalf("Get after Close = %v", err)
	}
	if err := putKV(d, []byte("k"), []byte("v")); !errors.Is(err, errClosed) {
		t.Fatalf("write after Close = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}
