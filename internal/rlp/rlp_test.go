package rlp

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Canonical vectors from the Ethereum wiki / yellow paper appendix B.
var encodeVectors = []struct {
	name string
	in   Value
	out  string
}{
	{"empty string", String(""), "80"},
	{"single low byte", Bytes([]byte{0x00}), "00"},
	{"single byte 0x7f", Bytes([]byte{0x7f}), "7f"},
	{"single byte 0x80", Bytes([]byte{0x80}), "8180"},
	{"dog", String("dog"), "83646f67"},
	{"cat dog list", List(String("cat"), String("dog")), "c88363617483646f67"},
	{"empty list", List(), "c0"},
	{"integer 0", Uint(0), "80"},
	{"integer 15", Uint(15), "0f"},
	{"integer 1024", Uint(1024), "820400"},
	{"nested empty lists", List(List(), List(List()), List(List(), List(List()))),
		"c7c0c1c0c3c0c1c0"},
	{"lorem 56 bytes", String("Lorem ipsum dolor sit amet, consectetur adipisicing elit"),
		"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"},
}

func TestEncodeVectors(t *testing.T) {
	for _, tc := range encodeVectors {
		got := hex.EncodeToString(Encode(tc.in))
		if got != tc.out {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.out)
		}
	}
}

func TestDecodeVectors(t *testing.T) {
	for _, tc := range encodeVectors {
		raw, _ := hex.DecodeString(tc.out)
		v, err := Decode(raw)
		if err != nil {
			t.Errorf("%s: decode error: %v", tc.name, err)
			continue
		}
		if !valueEqual(v, tc.in) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, v, tc.in)
		}
	}
}

// valueEqual compares two Values structurally, treating nil and empty
// byte slices / item slices as equal.
func valueEqual(a, b Value) bool {
	if a.IsList != b.IsList {
		return false
	}
	if !a.IsList {
		return bytes.Equal(a.Str, b.Str)
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !valueEqual(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}

func TestUintRoundTrip(t *testing.T) {
	for _, u := range []uint64{0, 1, 127, 128, 255, 256, 1024, 1 << 32, ^uint64(0)} {
		v, err := Decode(Encode(Uint(u)))
		if err != nil {
			t.Fatalf("decode(%d): %v", u, err)
		}
		got, err := v.AsUint()
		if err != nil || got != u {
			t.Errorf("round trip %d -> %d (%v)", u, got, err)
		}
	}
}

func TestBigIntRoundTrip(t *testing.T) {
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(1 << 40),
		new(big.Int).Lsh(big.NewInt(1), 200),
	}
	for _, want := range cases {
		v, err := Decode(Encode(BigInt(want)))
		if err != nil {
			t.Fatalf("decode(%v): %v", want, err)
		}
		got, err := v.AsBigInt()
		if err != nil || got.Cmp(want) != 0 {
			t.Errorf("round trip %v -> %v (%v)", want, got, err)
		}
	}
}

func TestBigIntNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative big.Int")
		}
	}()
	BigInt(big.NewInt(-1))
}

func TestBoolRoundTrip(t *testing.T) {
	for _, b := range []bool{true, false} {
		v, err := Decode(Encode(Bool(b)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AsBool()
		if err != nil || got != b {
			t.Errorf("bool %v -> %v (%v)", b, got, err)
		}
	}
	if _, err := Bytes([]byte{2}).AsBool(); err == nil {
		t.Error("2 should not decode as bool")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"truncated short string", "83aa"},
		{"truncated long string", "b840aabb"},
		{"truncated list", "c83363617483646f"},
		{"non-minimal single byte", "8101"},
		{"long form for short payload", "b801ff"},
		{"leading zero in long length", "b90001" + "ff"},
		{"trailing bytes", "80ff"},
	}
	for _, tc := range cases {
		raw, err := hex.DecodeString(tc.in)
		if err != nil {
			t.Fatalf("%s: bad test hex: %v", tc.name, err)
		}
		if _, err := Decode(raw); err == nil {
			t.Errorf("%s: expected decode error", tc.name)
		}
	}
}

func TestAccessorTypeErrors(t *testing.T) {
	list := List(Uint(1))
	if _, err := list.AsBytes(); err == nil {
		t.Error("AsBytes on list should error")
	}
	if _, err := list.AsUint(); err == nil {
		t.Error("AsUint on list should error")
	}
	str := String("x")
	if _, err := str.AsList(); err == nil {
		t.Error("AsList on string should error")
	}
	if _, err := list.ListOf(2); err == nil {
		t.Error("ListOf with wrong arity should error")
	}
	if items, err := list.ListOf(1); err != nil || len(items) != 1 {
		t.Errorf("ListOf(1) = %v, %v", items, err)
	}
}

func TestAsUintCanonical(t *testing.T) {
	// 0x820001 is the string {0x00, 0x01}: valid RLP string, but not a
	// canonical integer.
	raw, _ := hex.DecodeString("820001")
	v, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AsUint(); err == nil {
		t.Error("leading-zero integer should be rejected")
	}
	if _, err := v.AsBigInt(); err == nil {
		t.Error("leading-zero big integer should be rejected")
	}
	// Nine bytes does not fit uint64.
	big9 := Bytes(bytes.Repeat([]byte{0xff}, 9))
	if _, err := big9.AsUint(); err == nil {
		t.Error("9-byte integer should overflow uint64")
	}
}

// randomValue generates a random Value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	if depth <= 0 || r.Intn(2) == 0 {
		n := r.Intn(70)
		b := make([]byte, n)
		r.Read(b)
		return Bytes(b)
	}
	n := r.Intn(5)
	items := make([]Value, n)
	for i := range items {
		items[i] = randomValue(r, depth-1)
	}
	return List(items...)
}

// Property: Decode is a left inverse of Encode for arbitrary nested values.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 4)
		enc := Encode(v)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded value failed: %v (%x)", err, enc)
		}
		if !valueEqual(v, dec) {
			t.Fatalf("round trip mismatch: %+v -> %x -> %+v", v, enc, dec)
		}
	}
}

// appendClosing encodes v the way items-first encoders do: each list's
// items are appended, then CloseList wraps them.
func appendClosing(dst []byte, v Value) []byte {
	if !v.IsList {
		return AppendBytes(dst, v.Str)
	}
	start := len(dst)
	for _, item := range v.Items {
		dst = appendClosing(dst, item)
	}
	return CloseList(dst, start)
}

// Property: CloseList agrees with the tree model on nested values whose
// strings and lists straddle the 55-byte short/long boundary, whatever
// already precedes them in the buffer.
func TestCloseListMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 4)
		prefix := make([]byte, r.Intn(8))
		r.Read(prefix)
		got := appendClosing(append([]byte(nil), prefix...), v)
		if want := append(prefix, Encode(v)...); !bytes.Equal(got, want) {
			t.Fatalf("value %d: items-first %x, model %x", i, got, want)
		}
	}
	long := List(Bytes(make([]byte, 300)), Bytes(make([]byte, 70000)))
	if got := appendClosing(nil, long); !bytes.Equal(got, Encode(long)) {
		t.Fatal("multi-byte list length: items-first differs from the model")
	}
}

// Property: encoding is injective on byte strings (different strings,
// different encodings).
func TestQuickInjective(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(Encode(Bytes(a)), Encode(Bytes(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Uint and BigInt agree for all uint64 values.
func TestQuickUintBigIntAgree(t *testing.T) {
	f := func(u uint64) bool {
		return reflect.DeepEqual(Encode(Uint(u)), Encode(BigInt(new(big.Int).SetUint64(u))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeHeaderSizedList(b *testing.B) {
	v := List(
		Bytes(make([]byte, 32)), Bytes(make([]byte, 32)), Bytes(make([]byte, 20)),
		Bytes(make([]byte, 32)), Bytes(make([]byte, 32)), BigInt(big.NewInt(1<<40)),
		Uint(4_000_000), Uint(21_000), Uint(1_469_020_840), Bytes(make([]byte, 32)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(v)
	}
}

func BenchmarkDecodeHeaderSizedList(b *testing.B) {
	enc := Encode(List(
		Bytes(make([]byte, 32)), Bytes(make([]byte, 32)), Bytes(make([]byte, 20)),
		Bytes(make([]byte, 32)), Bytes(make([]byte, 32)), BigInt(big.NewInt(1<<40)),
		Uint(4_000_000), Uint(21_000), Uint(1_469_020_840), Bytes(make([]byte, 32)),
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
