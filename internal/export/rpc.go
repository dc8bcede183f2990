package export

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"forkwatch/internal/rpc"
	"forkwatch/internal/types"
)

// wireBlock mirrors the eth_getBlockByNumber result shape (full txs).
type wireBlock struct {
	Number       string   `json:"number"`
	Hash         string   `json:"hash"`
	Timestamp    string   `json:"timestamp"`
	Difficulty   string   `json:"difficulty"`
	Miner        string   `json:"miner"`
	Transactions []wireTx `json:"transactions"`
}

// wireTx mirrors the transaction object inside a full block.
type wireTx struct {
	Hash    string `json:"hash"`
	From    string `json:"from"`
	Nonce   string `json:"nonce"`
	ChainID string `json:"chainId"`
}

// wireReceipt mirrors the eth_getTransactionReceipt result shape.
type wireReceipt struct {
	TxHash       string `json:"transactionHash"`
	ContractCall bool   `json:"contractCall"`
}

func wireUint(s, what string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("export: bad %s quantity %q: %w", what, s, err)
	}
	return v, nil
}

func wireBig(s, what string) (*big.Int, error) {
	v, ok := new(big.Int).SetString(strings.TrimPrefix(s, "0x"), 16)
	if !ok {
		return nil, fmt.Errorf("export: bad %s quantity %q", what, s)
	}
	return v, nil
}

// FromRPC extracts rows over a chain's JSON-RPC endpoint — the same
// "dump every block and transaction" pipeline as FromStore, but run
// remotely the way the paper drove its two full nodes. The output is
// byte-identical to FromStore over the same chain: blocks 1..head in
// order, receipts joined per transaction for the contract-call flag.
// Receipts are fetched as one batch per block to amortise round trips.
// The client fails over between its endpoints per call, so a dump
// survives one of several same-chain servers going away.
func FromRPC(name string, cl *rpc.FailoverClient) ([]BlockRow, []TxRow, error) {
	var headHex string
	if _, err := cl.Call(&headHex, "eth_blockNumber"); err != nil {
		return nil, nil, fmt.Errorf("export: eth_blockNumber: %w", err)
	}
	head, err := wireUint(headHex, "head")
	if err != nil {
		return nil, nil, err
	}
	var blocks []BlockRow
	var txs []TxRow
	for n := uint64(1); n <= head; n++ {
		var blk *wireBlock
		if _, err := cl.Call(&blk, "eth_getBlockByNumber", fmt.Sprintf("0x%x", n), true); err != nil {
			return nil, nil, fmt.Errorf("export: eth_getBlockByNumber(%d): %w", n, err)
		}
		if blk == nil {
			// Absent canonical entry: FromStore skips these too.
			continue
		}
		num, err := wireUint(blk.Number, "block number")
		if err != nil {
			return nil, nil, err
		}
		tm, err := wireUint(blk.Timestamp, "timestamp")
		if err != nil {
			return nil, nil, err
		}
		diff, err := wireBig(blk.Difficulty, "difficulty")
		if err != nil {
			return nil, nil, err
		}
		blocks = append(blocks, BlockRow{
			Chain:      name,
			Number:     num,
			Hash:       types.HexToHash(blk.Hash),
			Time:       tm,
			Difficulty: diff,
			Coinbase:   types.HexToAddress(blk.Miner),
			TxCount:    len(blk.Transactions),
		})
		if len(blk.Transactions) == 0 {
			continue
		}
		recs := make([]*wireReceipt, len(blk.Transactions))
		elems := make([]rpc.BatchElem, len(blk.Transactions))
		for i, tx := range blk.Transactions {
			elems[i] = rpc.BatchElem{
				Method: "eth_getTransactionReceipt",
				Params: []any{tx.Hash},
				Result: &recs[i],
			}
		}
		if err := cl.Batch(elems); err != nil {
			return nil, nil, fmt.Errorf("export: receipt batch for block %d: %w", n, err)
		}
		for i, tx := range blk.Transactions {
			if elems[i].Err != nil {
				return nil, nil, fmt.Errorf("export: receipt of %s: %w", tx.Hash, elems[i].Err)
			}
			nonce, err := wireUint(tx.Nonce, "nonce")
			if err != nil {
				return nil, nil, err
			}
			chainID, err := wireUint(tx.ChainID, "chainId")
			if err != nil {
				return nil, nil, err
			}
			row := TxRow{
				Chain:       name,
				BlockNumber: num,
				BlockTime:   tm,
				Hash:        types.HexToHash(tx.Hash),
				From:        types.HexToAddress(tx.From),
				Nonce:       nonce,
				ChainID:     chainID,
			}
			if recs[i] != nil {
				row.Contract = recs[i].ContractCall
			}
			txs = append(txs, row)
		}
	}
	return blocks, txs, nil
}
