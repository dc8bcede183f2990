package chain

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pipelined chain import. Decoding a block and warming the memos body
// validation reads — the header hash, each transaction's keccak hash and
// signature check, the transaction trie root — is pure CPU work on
// immutable data, so it fans out across a bounded worker pool while the
// canonical write path stays strictly ordered on the caller's goroutine:
// decoded blocks collect into runs of at most MaxRun, and each run goes to
// InsertChain, which executes it in order and lands it as one commit (one
// batch, one fsync on disk). The worker count follows GOMAXPROCS; one
// worker degenerates to the serial loop, which commits the same runs.

// precacheShard is how many transactions one precache task warms; small
// enough to spread a single large block across workers, large enough
// that task dispatch doesn't dominate for typical blocks.
const precacheShard = 32

// importLookahead bounds how many decoded-but-uninserted blocks the
// pipeline holds: enough to keep workers busy while the consumer
// executes, without buffering a whole chain in memory.
const importLookahead = 4

// importPool is the shared bounded worker pool behind block precaching
// and the import pipeline. Workers start lazily on first use and then
// idle on the task channel for the life of the process (the
// senderCacher pattern: the pool is cheaper to keep than to rebuild per
// import, and idle goroutines cost nothing).
var importPool = &workerPool{size: runtime.GOMAXPROCS(0)}

type workerPool struct {
	size  int
	once  sync.Once
	tasks chan func()
}

func (p *workerPool) run(f func()) {
	p.once.Do(func() {
		if p.size < 1 {
			p.size = 1
		}
		p.tasks = make(chan func(), p.size)
		for i := 0; i < p.size; i++ {
			go func() {
				for task := range p.tasks {
					task()
				}
			}()
		}
	})
	p.tasks <- f
}

// warmBlock computes, on the calling goroutine, every memo InsertBlock's
// validation reads: header hash, per-transaction hashes and signature
// latches, and the transaction root. Failed signature checks are left
// for validateBody to re-verify and report.
func warmBlock(b *Block) {
	b.Header.Hash()
	for _, tx := range b.Txs {
		tx.Hash()
		_ = tx.VerifySig()
	}
	b.ComputedTxRoot()
}

// PrecacheBlock warms a block's validation memos ahead of InsertBlock,
// sharding the per-transaction work (keccak hashes, signature checks)
// across the shared worker pool and blocking until the block is warm.
// All memos are atomic, so racing a precache against a concurrent reader
// is safe. Deliberately NOT called from inside pool tasks — a task that
// waits on sub-tasks in the same pool can deadlock; pipeline workers use
// warmBlock inline instead.
func PrecacheBlock(b *Block) {
	var wg sync.WaitGroup
	txs := b.Txs
	for start := 0; start < len(txs); start += precacheShard {
		end := start + precacheShard
		if end > len(txs) {
			end = len(txs)
		}
		shard := txs[start:end]
		wg.Add(1)
		importPool.run(func() {
			defer wg.Done()
			for _, tx := range shard {
				tx.Hash()
				_ = tx.VerifySig()
			}
		})
	}
	b.Header.Hash()
	wg.Wait()
	// The tx root trie build is not sharded (the trie is sequential) but
	// runs after the tx encodings are hot.
	b.ComputedTxRoot()
}

// importJob carries one frame through the pipeline in stream order.
type importJob struct {
	blk   *Block
	ready chan struct{} // closed by the worker when blk/decodeErr are set

	decodeErr error // malformed frame: aborts the import as ErrImportStopped
	ioErr     error // truncated stream: returned unwrapped, like the serial path
}

// importRuns collects a stream's blocks into runs of at most MaxRun and
// hands each to InsertChain, counting what it inserted.
type importRuns struct {
	bc       *Blockchain
	run      []*Block
	imported int
}

// add appends b to the current run, committing the run once it is full.
func (r *importRuns) add(b *Block) error {
	r.run = append(r.run, b)
	if len(r.run) < MaxRun {
		return nil
	}
	return r.flush()
}

// flush commits the current run, if any.
func (r *importRuns) flush() error {
	n, err := r.bc.InsertChain(r.run)
	r.imported += n
	r.run = r.run[:0]
	if err != nil {
		return fmt.Errorf("%w: %v", ErrImportStopped, err)
	}
	return nil
}

// stop ends the import at a stream error: the blocks before it are
// committed first, as a block-by-block import would have, and an error
// of theirs comes first in stream order.
func (r *importRuns) stop(err error) (int, error) {
	if ferr := r.flush(); ferr != nil {
		return r.imported, ferr
	}
	return r.imported, err
}

// ImportChain reads blocks from r and inserts them in order, in runs of at
// most MaxRun blocks that each land as one commit, returning the number of
// newly imported blocks. Already-known blocks are skipped; the first
// otherwise-invalid block aborts with ErrImportStopped (wrapping the
// cause), after the blocks before it are committed. A crash loses at most
// the run in flight.
//
// Frames are decoded and precached by a worker pool running ahead of the
// insert loop; insertion order, error positions and error identities are
// exactly those of a serial import.
func (bc *Blockchain) ImportChain(r io.Reader) (int, error) {
	return bc.ImportChainWorkers(r, runtime.GOMAXPROCS(0))
}

// ImportChainWorkers is ImportChain with an explicit decode worker
// count; workers <= 1 selects the serial loop.
func (bc *Blockchain) ImportChainWorkers(r io.Reader, workers int) (int, error) {
	if workers <= 1 {
		return bc.importSerial(r)
	}

	jobs := make(chan *importJob, importLookahead)
	var stop atomic.Bool // consumer aborted: producer drains out

	go func() {
		defer close(jobs)
		for {
			job := &importJob{ready: make(chan struct{})}
			var lenBuf [4]byte
			if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
				if err == io.EOF {
					return
				}
				job.ioErr = err
				close(job.ready)
				jobs <- job
				return
			}
			size := binary.BigEndian.Uint32(lenBuf[:])
			if size > maxPersistFrame {
				job.decodeErr = fmt.Errorf("block frame of %d bytes", size)
				close(job.ready)
				jobs <- job
				return
			}
			enc := make([]byte, size)
			if _, err := io.ReadFull(r, enc); err != nil {
				job.ioErr = err
				close(job.ready)
				jobs <- job
				return
			}
			importPool.run(func() {
				defer close(job.ready)
				blk, err := DecodeBlock(enc)
				if err != nil {
					job.decodeErr = err
					return
				}
				warmBlock(blk)
				job.blk = blk
			})
			jobs <- job
			if stop.Load() {
				return
			}
		}
	}()

	// Unblock and drain the producer on early exit so its goroutine and
	// in-flight workers can finish.
	defer func() {
		stop.Store(true)
		for range jobs {
		}
	}()

	runs := &importRuns{bc: bc}
	for job := range jobs {
		<-job.ready
		switch {
		case job.ioErr != nil:
			return runs.stop(job.ioErr)
		case job.decodeErr != nil:
			return runs.stop(fmt.Errorf("%w: %v", ErrImportStopped, job.decodeErr))
		}
		if err := runs.add(job.blk); err != nil {
			return runs.imported, err
		}
	}
	return runs.stop(nil)
}

// importSerial is the single-threaded import loop: the reference
// semantics the pipeline reproduces, and the path taken on one CPU.
func (bc *Blockchain) importSerial(r io.Reader) (int, error) {
	runs := &importRuns{bc: bc}
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if err == io.EOF {
				return runs.stop(nil)
			}
			return runs.stop(err)
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size > maxPersistFrame {
			return runs.stop(fmt.Errorf("%w: block frame of %d bytes", ErrImportStopped, size))
		}
		enc := make([]byte, size)
		if _, err := io.ReadFull(r, enc); err != nil {
			return runs.stop(err)
		}
		blk, err := DecodeBlock(enc)
		if err != nil {
			return runs.stop(fmt.Errorf("%w: %v", ErrImportStopped, err))
		}
		if err := runs.add(blk); err != nil {
			return runs.imported, err
		}
	}
}
