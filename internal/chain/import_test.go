package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/types"
)

// exportTestChain builds a chain with traffic and returns its export
// stream alongside the source.
func exportTestChain(t testing.TB, blocks int) (*Blockchain, []byte) {
	t.Helper()
	src := newTestChain(t, MainnetLikeConfig())
	for i := 0; i < blocks; i++ {
		mine(t, src, 14, transfer(uint64(i), alice, bob, int64(i+1), 0))
	}
	var buf bytes.Buffer
	if err := src.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	return src, buf.Bytes()
}

func TestImportChainWorkersMatchesSerial(t *testing.T) {
	src, enc := exportTestChain(t, 12)
	for _, workers := range []int{1, 2, 4, 8} {
		dst := newTestChain(t, MainnetLikeConfig())
		n, err := dst.ImportChainWorkers(bytes.NewReader(enc), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != 12 {
			t.Fatalf("workers=%d imported %d blocks, want 12", workers, n)
		}
		if dst.Head().Hash() != src.Head().Hash() {
			t.Fatalf("workers=%d: imported head differs from source", workers)
		}
	}
}

func TestImportChainWorkersErrorPosition(t *testing.T) {
	_, enc := exportTestChain(t, 8)
	// Corrupt the last frame's payload: flipping trailing bytes breaks the
	// final block's RLP or its validation, after 7 clean imports.
	corrupt := append([]byte(nil), enc...)
	for i := len(corrupt) - 8; i < len(corrupt); i++ {
		corrupt[i] ^= 0xff
	}
	serialDst := newTestChain(t, MainnetLikeConfig())
	serialN, serialErr := serialDst.ImportChainWorkers(bytes.NewReader(corrupt), 1)
	pipeDst := newTestChain(t, MainnetLikeConfig())
	pipeN, pipeErr := pipeDst.ImportChainWorkers(bytes.NewReader(corrupt), 4)
	if (serialErr == nil) != (pipeErr == nil) {
		t.Fatalf("serial err %v vs pipeline err %v", serialErr, pipeErr)
	}
	if serialErr == nil {
		t.Fatal("corrupted stream imported cleanly")
	}
	if !errors.Is(pipeErr, ErrImportStopped) && pipeErr.Error() != serialErr.Error() {
		t.Fatalf("pipeline error %v, want ErrImportStopped or the serial error %v", pipeErr, serialErr)
	}
	if serialN != pipeN {
		t.Fatalf("serial imported %d before failing, pipeline %d", serialN, pipeN)
	}
}

func TestImportChainWorkersTruncatedStream(t *testing.T) {
	_, enc := exportTestChain(t, 6)
	// Cut the stream mid-frame: both paths should surface the raw read
	// error (not ErrImportStopped) after the same number of imports.
	cut := enc[:len(enc)-5]
	serialDst := newTestChain(t, MainnetLikeConfig())
	serialN, serialErr := serialDst.ImportChainWorkers(bytes.NewReader(cut), 1)
	pipeDst := newTestChain(t, MainnetLikeConfig())
	pipeN, pipeErr := pipeDst.ImportChainWorkers(bytes.NewReader(cut), 4)
	if serialErr == nil || pipeErr == nil {
		t.Fatalf("truncated stream: serial err %v, pipeline err %v", serialErr, pipeErr)
	}
	if errors.Is(pipeErr, ErrImportStopped) {
		t.Fatalf("truncation misreported as invalid block: %v", pipeErr)
	}
	if serialN != pipeN {
		t.Fatalf("serial imported %d before truncation, pipeline %d", serialN, pipeN)
	}
}

func TestImportChainWorkersGarbage(t *testing.T) {
	dst := newTestChain(t, MainnetLikeConfig())
	if _, err := dst.ImportChainWorkers(bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3}), 4); !errors.Is(err, ErrImportStopped) {
		t.Errorf("garbage import: err = %v", err)
	}
	if _, err := dst.ImportChainWorkers(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), 4); !errors.Is(err, ErrImportStopped) {
		t.Errorf("absurd frame import: err = %v", err)
	}
}

// importResult is what one import of a stream shows: the count, the error
// (identity and text, so its position too) and the head.
type importResult struct {
	n    int
	err  string
	head types.Hash
}

// importBoth imports stream into fresh chains inline and with the decode-
// ahead goroutine, and fails the test unless the goroutine count returns
// to its baseline after each.
func importBoth(t *testing.T, stream []byte) [2]importResult {
	t.Helper()
	var got [2]importResult
	for i, workers := range []int{1, 4} {
		dst := newTestChain(t, MainnetLikeConfig())
		base := runtime.NumGoroutine()
		n, err := dst.ImportChainWorkers(bytes.NewReader(stream), workers)
		// A goroutine that has closed its done channel may not have exited
		// yet; one that leaked never does.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after the import, %d before", workers, runtime.NumGoroutine(), base)
			}
		}
		got[i] = importResult{n, fmt.Sprint(err), dst.Head().Hash()}
	}
	if got[0] != got[1] {
		t.Fatalf("inline import %+v, decode-ahead import %+v", got[0], got[1])
	}
	return got
}

// FuzzImportChain: any byte stream imports the same inline and with the
// decode-ahead goroutine — same count, error and head — and the goroutine
// is gone when the import returns, however it stopped.
func FuzzImportChain(f *testing.F) {
	_, enc := exportTestChain(f, 8)
	corrupt := append([]byte(nil), enc...)
	for i := len(corrupt) - 8; i < len(corrupt); i++ {
		corrupt[i] ^= 0xff
	}
	f.Add(enc)
	f.Add(corrupt)
	f.Add(enc[:len(enc)-5])
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, stream []byte) { importBoth(t, stream) })
}

// TestImportChainStopsWithDecoderAhead: an invalid block in the second run
// stops the import while the decoder, a full run ahead with more than a
// run of frames still unread, is blocked handing over the next block. Both
// modes commit the first run and the blocks before the invalid one, and
// the decoder does not outlive the call.
func TestImportChainStopsWithDecoderAhead(t *testing.T) {
	src := newTestChain(t, MainnetLikeConfig())
	blocks := make([]*Block, 3*MaxRun+10)
	for i := range blocks {
		blocks[i] = mine(t, src, 14)
	}
	bad, err := DecodeBlock(blocks[MaxRun+5].Encode())
	if err != nil {
		t.Fatal(err)
	}
	bad.Header.StateRoot[0] ^= 1
	blocks[MaxRun+5] = bad
	var stream []byte
	for _, b := range blocks {
		enc := b.Encode()
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(enc)))
		stream = append(stream, enc...)
	}
	got := importBoth(t, stream)
	if got[0].n != MaxRun+5 || !strings.Contains(got[0].err, ErrImportStopped.Error()) {
		t.Fatalf("imported %d blocks (%s), want %d and ErrImportStopped", got[0].n, got[0].err, MaxRun+5)
	}
}

func TestPrecacheBlockWarmsMemos(t *testing.T) {
	src, _ := exportTestChain(t, 3)
	b, ok := src.BlockByNumber(2)
	if !ok {
		t.Fatal("missing block 2")
	}
	PrecacheBlock(b)
	if got := b.ComputedTxRoot(); got != b.Header.TxRoot {
		t.Fatalf("precached tx root %x, header says %x", got, b.Header.TxRoot)
	}
	for _, tx := range b.Txs {
		if err := tx.VerifySig(); err != nil {
			t.Fatalf("precached tx failed verify: %v", err)
		}
	}
}
