package chain

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
)

// Chain import: blocks collect into runs of at most MaxRun, each landing
// through InsertChain as one commit. Decoding a frame and warming its
// validation memos is pure CPU work on immutable data, several times
// cheaper than inserting the block, so with a spare CPU one goroutine does
// it up to a run ahead of the ordered insert loop.

// PrecacheBlock warms, on the calling goroutine, every memo InsertBlock's
// validation reads: header hash, per-transaction hashes and signature
// latches, and the transaction root. Failed signature checks are left for
// validateBody to re-verify and report. All memos are atomic, so racing a
// precache against a concurrent reader is safe.
func PrecacheBlock(b *Block) {
	b.Header.Hash()
	for _, tx := range b.Txs {
		tx.Hash()
		_ = tx.VerifySig()
	}
	b.ComputedTxRoot()
}

// readBlock reads and decodes the next length-prefixed frame of an export
// stream. It returns a nil block and a nil error at the clean end of the
// stream, the raw read error for a truncated one, and ErrImportStopped for
// a frame that is oversized or does not decode.
func readBlock(r io.Reader) (*Block, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxPersistFrame {
		return nil, fmt.Errorf("%w: block frame of %d bytes", ErrImportStopped, size)
	}
	enc := make([]byte, size)
	if _, err := io.ReadFull(r, enc); err != nil {
		return nil, err
	}
	blk, err := DecodeBlock(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImportStopped, err)
	}
	return blk, nil
}

// ImportChain reads blocks from r and inserts them in order, in runs of at
// most MaxRun blocks that each land as one commit, returning the number of
// newly imported blocks. Already-known blocks are skipped; the first
// otherwise-invalid block aborts with ErrImportStopped (wrapping the
// cause), after the blocks before it are committed. A crash loses at most
// the run in flight. With more than one CPU, frames are decoded and warmed
// ahead of the insert loop; insertion order, error positions and error
// identities are exactly those of the inline loop.
func (bc *Blockchain) ImportChain(r io.Reader) (int, error) {
	return bc.ImportChainWorkers(r, runtime.GOMAXPROCS(0))
}

// ImportChainWorkers is ImportChain with the CPU count explicit: workers
// <= 1 decodes each frame inline, just before it joins its run (the
// reference loop); any more runs one goroutine that decodes and warms up
// to MaxRun blocks ahead of the insert loop and is gone when this returns.
func (bc *Blockchain) ImportChainWorkers(r io.Reader, workers int) (int, error) {
	next := func() (*Block, error) { return readBlock(r) }
	if workers > 1 {
		type decoded struct {
			blk *Block
			err error
		}
		// A run ahead: what the insert loop takes before each commit.
		ahead := make(chan decoded, MaxRun)
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				blk, err := readBlock(r)
				if blk != nil {
					PrecacheBlock(blk)
				}
				select {
				case ahead <- decoded{blk, err}:
				case <-quit:
					return
				}
				if blk == nil {
					return
				}
			}
		}()
		defer func() {
			close(quit)
			<-done
		}()
		next = func() (*Block, error) {
			d := <-ahead
			return d.blk, d.err
		}
	}
	var run []*Block
	imported := 0
	commit := func() error {
		n, err := bc.InsertChain(run)
		imported += n
		run = run[:0]
		if err != nil {
			return fmt.Errorf("%w: %v", ErrImportStopped, err)
		}
		return nil
	}
	for {
		blk, err := next()
		if blk == nil {
			// The end of the stream, or a stream error: the blocks before
			// it are committed first, as a block-by-block import would
			// have, and an error of theirs comes first in stream order.
			if cerr := commit(); cerr != nil {
				return imported, cerr
			}
			return imported, err
		}
		if run = append(run, blk); len(run) == MaxRun {
			if err := commit(); err != nil {
				return imported, err
			}
		}
	}
}
