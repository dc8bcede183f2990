package rpc

import (
	"encoding/json"
	"fmt"
	"math/big"
	"testing"
)

// TestParseQuantity: a quantity is 0x (or 0X) followed by hex digits and
// nothing else. The refused rows are strings a %x scan used to stop
// early on, answering the number before the first bad byte.
func TestParseQuantity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"0x0", 0}, {"0x1", 1}, {"0x2a", 42}, {"0X2A", 42}, {"0xAbC", 0xabc},
		{"0x00010", 16}, {"0xffffffffffffffff", 1<<64 - 1},
	} {
		got, err := parseQuantity(json.RawMessage(`"`+tc.in+`"`), "q")
		if err != nil || got != tc.want {
			t.Errorf("parseQuantity(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"0x10zz", "0x 5", "0x1_0", "0x", "0x-1", "0x+1", "0x1 ", " 0x1", "0x0x1",
		"10", "x10", "", "0x10000000000000000",
	} {
		if got, err := parseQuantity(json.RawMessage(`"`+in+`"`), "q"); err == nil || err.Code != ErrCodeInvalidParams {
			t.Errorf("parseQuantity(%q) = %d, %v; want ErrCodeInvalidParams", in, got, err)
		}
	}
}

// TestEncQuantities: the strconv/big.Int.Append encoders write what
// fmt's %x wrote.
func TestEncQuantities(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 0xdeadbeef, 1<<64 - 1} {
		if got, want := encUint(v), fmt.Sprintf("0x%x", v); got != want {
			t.Errorf("encUint(%d) = %s, want %s", v, got, want)
		}
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	for _, v := range []*big.Int{nil, new(big.Int), big.NewInt(1), big.NewInt(-255), big.NewInt(62_413_376_722_602), huge} {
		want := "0x0"
		if v != nil && v.Sign() != 0 {
			want = "0x" + v.Text(16)
		}
		if got := encBig(v); got != want {
			t.Errorf("encBig(%v) = %s, want %s", v, got, want)
		}
	}
}
