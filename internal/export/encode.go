package export

import (
	"encoding/hex"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The append encoders below are the only production CSV encoders of the
// three ledger tables, behind WriteBlocks/WriteTxs/WriteDays. Their output
// is byte-identical to encoding/csv's Writer (comma delimiter, "\n" line
// ends) over the []string forms kept in encode_test.go as the
// differential model.

// blockHeader, txHeader are the CSV headers of the block and transaction
// tables.
var (
	blockHeader = []string{"chain", "number", "hash", "time", "difficulty", "coinbase", "txcount"}
	txHeader    = []string{"chain", "block", "blocktime", "hash", "from", "nonce", "chainid", "contract"}
)

// dayHeader builds the day-table CSV header for a chain list: "day", the
// per-chain usd columns, then the per-chain hashrate columns — for the
// historical pair exactly the legacy "day,ethusd,etcusd,ethhashrate,
// etchashrate" layout.
func dayHeader(chains []string) []string {
	out := []string{"day"}
	for _, c := range chains {
		out = append(out, strings.ToLower(c)+"usd")
	}
	for _, c := range chains {
		out = append(out, strings.ToLower(c)+"hashrate")
	}
	return out
}

// AppendBlockHeader appends the block-table header line to dst.
func AppendBlockHeader(dst []byte) []byte { return appendRecord(dst, blockHeader) }

// AppendTxHeader appends the transaction-table header line to dst.
func AppendTxHeader(dst []byte) []byte { return appendRecord(dst, txHeader) }

// AppendDayHeader appends the day-table header line for a chain list to
// dst.
func AppendDayHeader(dst []byte, chains []string) []byte {
	return appendRecord(dst, dayHeader(chains))
}

// zeroHashHex is the block table's hash column: the zero hash, since no
// block row carries a hash (see BlockRow).
const zeroHashHex = "0x0000000000000000000000000000000000000000000000000000000000000000"

// AppendBlockRow appends one block row as a CSV line to dst.
func AppendBlockRow(dst []byte, r BlockRow) []byte {
	dst = appendField(dst, r.Chain)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.Number, 10)
	dst = append(dst, ',')
	dst = append(dst, zeroHashHex...)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.Time, 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.Difficulty, 10)
	dst = append(dst, ',')
	dst = appendHex(dst, r.Coinbase[:])
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(r.TxCount), 10)
	return append(dst, '\n')
}

// AppendTxRow appends one transaction row as a CSV line to dst.
func AppendTxRow(dst []byte, r TxRow) []byte {
	dst = appendField(dst, r.Chain)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.BlockNumber, 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.BlockTime, 10)
	dst = append(dst, ',')
	dst = appendHex(dst, r.Hash[:])
	dst = append(dst, ',')
	dst = appendHex(dst, r.From[:])
	dst = append(dst, ",0,0,"...) // nonce 0, then the 0/1 chainid marker
	if r.ChainBound {
		dst[len(dst)-2] = '1'
	}
	dst = strconv.AppendBool(dst, r.Contract)
	return append(dst, '\n')
}

// AppendDayRow appends one day row as a CSV line to dst: the day, the USD
// columns, then the hashrate columns. Chains only name the columns (the
// header); the row itself carries no strings.
func AppendDayRow(dst []byte, r DayRow) []byte {
	dst = strconv.AppendInt(dst, int64(r.Day), 10)
	for _, v := range r.USD {
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	for _, v := range r.Hashrate {
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, '\n')
}

// appendRecord appends a record of free-form fields as one CSV line.
func appendRecord(dst []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendField(dst, f)
	}
	return append(dst, '\n')
}

// appendField appends a free-form field, quoted exactly where
// encoding/csv quotes: inside quotes only '"' is escaped (doubled), and
// '\r' and '\n' stay verbatim. Numbers, hex strings and booleans never
// need it, so the row encoders call this for the chain name alone.
func appendField(dst []byte, f string) []byte {
	if !fieldNeedsQuotes(f) {
		return append(dst, f...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, f[i])
	}
	return append(dst, '"')
}

// fieldNeedsQuotes is encoding/csv's rule for the comma delimiter: a
// field is quoted if it holds a delimiter, quote, CR or LF, starts with
// a space (any unicode.IsSpace rune), or is the literal `\.` (an
// end-of-data marker to some readers).
func fieldNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}

// appendHex appends b as 0x-prefixed lowercase hex, the form of
// types.Hash.Hex and types.Address.Hex.
func appendHex(dst, b []byte) []byte {
	dst = append(dst, '0', 'x')
	return hex.AppendEncode(dst, b)
}
