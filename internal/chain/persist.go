package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Import lives in import.go: ImportChain decodes and warms frames on one
// goroutine up to a run ahead of the ordered insert loop.

// Chain persistence: the canonical chain streams as consecutive
// length-prefixed RLP blocks, the same format go-ethereum's export/import
// uses in spirit. cmd/forknode nodes can snapshot and restore their
// ledger; tests use it to clone chains.

// ErrImportStopped reports an import aborted on the first rejected block.
var ErrImportStopped = errors.New("chain: import stopped at invalid block")

// maxPersistFrame bounds one stored block (DoS guard on import).
const maxPersistFrame = 16 << 20

// WriteChain streams the canonical chain — blocks 1 through the head — to
// w. Genesis is not written: it is the identity of the chain and must
// match on import.
func (bc *Blockchain) WriteChain(w io.Writer) error {
	head := bc.Head().Number()
	for n := uint64(1); n <= head; n++ {
		b, ok := bc.BlockByNumber(n)
		if !ok {
			return fmt.Errorf("chain: canonical gap at height %d", n)
		}
		enc := b.Encode()
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(enc)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(enc); err != nil {
			return err
		}
	}
	return nil
}
