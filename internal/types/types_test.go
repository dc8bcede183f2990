package types

import (
	"testing"
	"testing/quick"
)

func TestBytesToHashPadding(t *testing.T) {
	h := BytesToHash([]byte{0xab, 0xcd})
	want := "0x000000000000000000000000000000000000000000000000000000000000abcd"
	if h.Hex() != want {
		t.Errorf("short input: got %s, want %s", h.Hex(), want)
	}
	long := make([]byte, 40)
	long[39] = 0x11
	h = BytesToHash(long)
	if h[31] != 0x11 || h[0] != 0 {
		t.Errorf("long input should keep rightmost bytes: %s", h)
	}
}

func TestHexToHashRoundTrip(t *testing.T) {
	in := "0x1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
	h := HexToHash(in)
	if h.Hex() != in {
		t.Errorf("round trip failed: %s != %s", h.Hex(), in)
	}
	if HexToHash("zznothex") != (Hash{}) {
		t.Error("invalid hex should yield zero hash")
	}
}

func TestHashBig(t *testing.T) {
	h := BytesToHash([]byte{0x01, 0x00})
	if h.Big().Int64() != 256 {
		t.Errorf("Big() = %v, want 256", h.Big())
	}
}

func TestAddressConversions(t *testing.T) {
	a := HexToAddress("0xdeadbeef")
	if a.Hex() != "0x00000000000000000000000000000000deadbeef" {
		t.Errorf("unexpected address hex %s", a.Hex())
	}
	if a.IsZero() {
		t.Error("non-zero address reported zero")
	}
	if !(Address{}).IsZero() {
		t.Error("zero address not reported zero")
	}
	if got := a.Hash(); got[31] != 0xef || got[11] != 0 {
		t.Errorf("Address.Hash padding wrong: %s", got)
	}
}

func TestBigHelpers(t *testing.T) {
	a, b := Big(3), Big(7)
	if BigMax(a, b).Int64() != 7 || BigMin(a, b).Int64() != 3 {
		t.Error("BigMax/BigMin wrong")
	}
	c := BigCopy(a)
	c.SetInt64(99)
	if a.Int64() != 3 {
		t.Error("BigCopy aliases its input")
	}
	if BigCopy(nil) != nil {
		t.Error("BigCopy(nil) should be nil")
	}
}

// Property: BytesToHash . Bytes is the identity on 32-byte inputs.
func TestQuickHashRoundTrip(t *testing.T) {
	f := func(h Hash) bool { return BytesToHash(h.Bytes()) == h }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HexToHash . Hex is the identity.
func TestQuickHexRoundTrip(t *testing.T) {
	f := func(h Hash) bool { return HexToHash(h.Hex()) == h }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: address conversion keeps the low 20 bytes of any hash.
func TestQuickAddressTruncation(t *testing.T) {
	f := func(h Hash) bool {
		a := BytesToAddress(h.Bytes())
		for i := 0; i < AddressLength; i++ {
			if a[i] != h[i+12] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
