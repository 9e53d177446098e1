package constraint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// reflectedValue is the reflection-based Value codec that AppendJSON and
// ReadJSON replaced, kept as the reference they must agree with.
type reflectedValue struct {
	N *float64 `json:"n,omitempty"`
	S *string  `json:"s,omitempty"`
}

func reflectedMarshal(v Value) ([]byte, error) {
	if v.kind == KindNumber {
		n := v.num
		return json.Marshal(reflectedValue{N: &n})
	}
	s := v.str
	return json.Marshal(reflectedValue{S: &s})
}

func reflectedUnmarshal(data []byte) (Value, error) {
	var raw reflectedValue
	if err := json.Unmarshal(data, &raw); err != nil {
		return Value{}, err
	}
	switch {
	case raw.N != nil && raw.S != nil:
		return Value{}, fmt.Errorf("both")
	case raw.N != nil:
		return Num(*raw.N), nil
	case raw.S != nil:
		return Str(*raw.S), nil
	}
	return Str(""), nil
}

// sameValue compares values bit for bit, so -0 and 0 differ.
func sameValue(a, b Value) bool {
	return a.kind == b.kind && math.Float64bits(a.num) == math.Float64bits(b.num) && a.str == b.str
}

// edgeFloats are the numbers whose JSON form is easiest to get wrong.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 123456789,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e-7, 1e-9, 1e-10, 1e-100, 1e20, 1e22, 1e100, 1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 4.9e-324, 2.2250738585072014e-308,
	1 << 52, 1<<53 + 1, 9007199254740993, 0.30000000000000004,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// edgeStrings cover every escaping rule encoding/json applies.
var edgeStrings = []string{
	"", "P1", "a b", `"quoted"`, `back\slash`, "<script>&amp;</script>",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "caf\u00e9", "\u2028\u2029", "a\u2028b",
	"\xff", "\xe2\x80", "ok\xc3", "\u65e5\u672c", "\U0001F600", "\ufffd", "/slash/",
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Num(edgeFloats[rng.Intn(len(edgeFloats))])
	case 1:
		return Num(math.Float64frombits(rng.Uint64()))
	case 2:
		return Num(float64(rng.Intn(2000)-1000) / float64(1+rng.Intn(100)))
	case 3:
		return Str(edgeStrings[rng.Intn(len(edgeStrings))])
	case 4:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return Str(string(b))
	default:
		var sb strings.Builder
		for i := rng.Intn(6); i > 0; i-- {
			sb.WriteRune(rune(rng.Intn(0x3000)))
		}
		return Str(sb.String())
	}
}

// TestValueJSONMatchesReflected checks that AppendJSON writes the bytes
// the reflected encoder wrote (or fails where it failed), and that
// ReadJSON reads them back to the same value.
func TestValueJSONMatchesReflected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var values []Value
	for _, f := range edgeFloats {
		values = append(values, Num(f))
	}
	for _, s := range edgeStrings {
		values = append(values, Str(s))
	}
	for i := 0; i < 50000; i++ {
		values = append(values, randomValue(rng))
	}
	for _, v := range values {
		want, wantErr := reflectedMarshal(v)
		got, err := v.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#v: err = %v, reflected err = %v", v, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v: wrote %s, reflected encoder wrote %s", v, got, want)
		}
		var back Value
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("%s: %v", got, err)
		}
		ref, _ := reflectedUnmarshal(got)
		if !sameValue(back, ref) {
			t.Fatalf("%s: read %#v, reflected decoder read %#v", got, back, ref)
		}
	}
}

// FuzzValueJSON checks that decoding any input gives the value and the
// success or failure the reflected decoder gives.
func FuzzValueJSON(f *testing.F) {
	for _, seed := range []string{
		`{"n":1}`, `{"n":-0}`, `{"n":1.5e-7}`, `{"n":1e21}`, `{"n":1E+2}`, `{"n":0.000001}`,
		`{"s":"x"}`, `{"s":""}`, "{\"s\":\"<\u2028\"}", `{"s":"\ud800"}`, "{\"s\":\"\xff\"}",
		`{}`, `{"n":1,"s":"x"}`, `{"s":"x","n":1}`, ` {"n" : 2 } `, `{"N":3}`, `{"n":null}`,
		`null`, `{"n":01}`, `{"n":1.}`, `{"n":1e400}`, `{"n":-}`, `{"s":"a"}x`, `{"x":1,"n":2}`,
		`{"n":12345678901234567890}`, `{"n":0.1234567890123456789}`, `{"n":"1"}`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := reflectedUnmarshal(data)
		var got Value
		err := got.UnmarshalJSON(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: err = %v, reflected err = %v", data, err, wantErr)
		}
		if err == nil && !sameValue(got, want) {
			t.Fatalf("%q: got %#v, reflected %#v", data, got, want)
		}
	})
}
