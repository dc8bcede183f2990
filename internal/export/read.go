package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"forkwatch/internal/types"
)

// readTable streams a CSV table: header sees the first record, row each
// later one with its 1-based row number. The reader reuses the record
// slice, so neither may retain it; the field strings of one record share
// one allocation, which chainNames keeps rows from pinning.
func readTable(r io.Reader, table string, header func(rec []string) error, row func(n int, rec []string) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err == io.EOF {
		return fmt.Errorf("export: empty %s table", table)
	}
	if err != nil {
		return err
	}
	if err := header(rec); err != nil {
		return err
	}
	for n := 1; ; n++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := row(n, rec); err != nil {
			return err
		}
	}
}

// chainNames interns the chain column: each row holds one of the few
// distinct names instead of a substring that keeps its whole CSV line
// alive.
type chainNames map[string]string

func (m chainNames) intern(s string) string {
	if v, ok := m[s]; ok {
		return v
	}
	s = strings.Clone(s)
	m[s] = s
	return s
}

// ReadBlocks parses a block CSV. The hash column is not read (a BlockRow
// has no hash); a difficulty wider than 64 bits or a txcount outside
// uint32 is an error naming the row.
func ReadBlocks(r io.Reader) ([]BlockRow, error) {
	var rows []BlockRow
	names := chainNames{}
	err := readTable(r, "block",
		func(rec []string) error { return checkHeader(rec, blockHeader) },
		func(n int, rec []string) error {
			if len(rec) != len(blockHeader) {
				return fmt.Errorf("export: block row %d has %d fields", n, len(rec))
			}
			num, err := strconv.ParseUint(rec[1], 10, 64)
			if err != nil {
				return fmt.Errorf("export: block row %d number: %w", n, err)
			}
			tm, err := strconv.ParseUint(rec[3], 10, 64)
			if err != nil {
				return fmt.Errorf("export: block row %d time: %w", n, err)
			}
			diff, err := strconv.ParseUint(rec[4], 10, 64)
			if err != nil {
				return fmt.Errorf("export: block row %d difficulty: %w", n, err)
			}
			txc, err := strconv.ParseUint(rec[6], 10, 32)
			if err != nil {
				return fmt.Errorf("export: block row %d txcount: %w", n, err)
			}
			rows = append(rows, BlockRow{
				Chain:      names.intern(rec[0]),
				Number:     num,
				Time:       tm,
				Difficulty: diff,
				Coinbase:   types.HexToAddress(rec[5]),
				TxCount:    uint32(txc),
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ReadTxs parses a transaction CSV.
func ReadTxs(r io.Reader) ([]TxRow, error) {
	var rows []TxRow
	names := chainNames{}
	err := readTable(r, "tx",
		func(rec []string) error { return checkHeader(rec, txHeader) },
		func(n int, rec []string) error {
			if len(rec) != len(txHeader) {
				return fmt.Errorf("export: tx row %d has %d fields", n, len(rec))
			}
			blockNum, err := strconv.ParseUint(rec[1], 10, 64)
			if err != nil {
				return fmt.Errorf("export: tx row %d block: %w", n, err)
			}
			blockTime, err := strconv.ParseUint(rec[2], 10, 64)
			if err != nil {
				return fmt.Errorf("export: tx row %d blocktime: %w", n, err)
			}
			nonce, err := strconv.ParseUint(rec[5], 10, 64)
			if err != nil {
				return fmt.Errorf("export: tx row %d nonce: %w", n, err)
			}
			chainID, err := strconv.ParseUint(rec[6], 10, 64)
			if err != nil {
				return fmt.Errorf("export: tx row %d chainid: %w", n, err)
			}
			contract, err := strconv.ParseBool(rec[7])
			if err != nil {
				return fmt.Errorf("export: tx row %d contract: %w", n, err)
			}
			rows = append(rows, TxRow{
				Chain:       names.intern(rec[0]),
				BlockNumber: blockNum,
				BlockTime:   blockTime,
				Hash:        types.HexToHash(rec[3]),
				From:        types.HexToAddress(rec[4]),
				Nonce:       nonce,
				ChainID:     chainID,
				Contract:    contract,
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("export: header %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("export: header %v, want %v", got, want)
		}
	}
	return nil
}

// ReadDays parses a day CSV, recovering the chain list from the header's
// <chain>usd / <chain>hashrate column pairs.
func ReadDays(r io.Reader) ([]DayRow, error) {
	var rows []DayRow
	var chains []string
	var k, fields int
	err := readTable(r, "day",
		func(header []string) error {
			if len(header) < 1 || header[0] != "day" || len(header)%2 == 0 {
				return fmt.Errorf("export: bad day header %v", header)
			}
			fields = len(header)
			k = (fields - 1) / 2
			chains = make([]string, k)
			for i := 0; i < k; i++ {
				u := header[1+i]
				h := header[1+k+i]
				name := strings.TrimSuffix(u, "usd")
				if name == u || strings.TrimSuffix(h, "hashrate") != name {
					return fmt.Errorf("export: bad day header %v: columns %q/%q", header, u, h)
				}
				chains[i] = strings.ToUpper(name)
			}
			return nil
		},
		func(n int, rec []string) error {
			if len(rec) != fields {
				return fmt.Errorf("export: day row %d has %d fields", n, len(rec))
			}
			day, err := strconv.Atoi(rec[0])
			if err != nil {
				return fmt.Errorf("export: day row %d: %w", n, err)
			}
			vals := make([]float64, 2*k)
			for j := range vals {
				v, err := strconv.ParseFloat(rec[j+1], 64)
				if err != nil {
					return fmt.Errorf("export: day row %d field %d: %w", n, j+1, err)
				}
				vals[j] = v
			}
			rows = append(rows, DayRow{Day: day, Chains: chains, USD: vals[:k], Hashrate: vals[k : 2*k]})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
