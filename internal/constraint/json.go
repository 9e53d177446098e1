package constraint

import (
	"encoding/json"
	"fmt"

	"infosleuth/internal/jsonwire"
)

// Values and Sets travel inside KQML message content, so they marshal to
// JSON. A Value encodes as {"n":1.5} or {"s":"40W"}; a Set encodes as its
// list of atoms.

// AppendJSON appends the value's JSON form. A number with no JSON form
// (NaN, ±Inf) is an error.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	if v.kind != KindNumber {
		dst = jsonwire.AppendString(append(dst, `{"s":`...), v.str)
		return append(dst, '}'), nil
	}
	dst, err := jsonwire.AppendFloat(append(dst, `{"n":`...), v.num)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// ReadJSON reads a value in the form AppendJSON writes.
func (v *Value) ReadJSON(r *jsonwire.Reader) {
	switch {
	case r.Lit(`{"n":`):
		*v = Num(r.Float())
	case r.Lit(`{"s":`):
		*v = Str(r.String())
	default:
		r.Fail()
	}
	r.Expect("}")
}

// valueJSON decodes the forms ReadJSON does not handle: whitespace,
// upper-case or unknown keys, nulls, and {} (the empty string).
type valueJSON struct {
	N *float64 `json:"n"`
	S *string  `json:"s"`
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	r := jsonwire.NewReader(data)
	var out Value
	if out.ReadJSON(&r); r.End() {
		*v = out
		return nil
	}
	var raw valueJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch {
	case raw.N != nil && raw.S != nil:
		return fmt.Errorf("constraint: value cannot be both number and string")
	case raw.N != nil:
		*v = Num(*raw.N)
	case raw.S != nil:
		*v = Str(*raw.S)
	default:
		*v = Str("")
	}
	return nil
}

// MarshalJSON implements json.Marshaler; the set encodes as its atom list.
func (s *Set) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.Atoms())
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Set) UnmarshalJSON(data []byte) error {
	var atoms []Atom
	if err := json.Unmarshal(data, &atoms); err != nil {
		return err
	}
	*s = Set{}
	for _, a := range atoms {
		s.Add(a)
	}
	return nil
}
