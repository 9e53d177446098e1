package jsonwire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// canonical reports whether data is one valid JSON value that
// encoding/json's Marshal re-emits unchanged when it is a RawMessage.
func canonical(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	out, err := json.Marshal(json.RawMessage(data))
	return err == nil && bytes.Equal(out, data)
}

// FuzzSkip checks that Skip accepts exactly the canonical values: every
// value it accepts is valid and re-emitted unchanged by encoding/json, and
// it accepts every such value that is not nested past maxDepth.
func FuzzSkip(f *testing.F) {
	for _, seed := range []string{
		`{"a":[1,-0.5e+3,true,false,null,"x\"\\\/\b\f\n\r\tA"],"b":{}}`, `[]`, `""`, `0`,
		`{"a" :1}`, `[1,]`, `01`, `1.`, `-`, `"a<b"`, `"<"`, "\" \"", "\"\xff\"",
		"\"\x01\"", `"\x"`, `"\u12g4"`, `[1] `, `{"a":1}{}`, `nul`, `{"a"}`, `{1:2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		raw := r.Skip()
		ok := r.End()
		want := canonical(data)
		if ok && (!want || !bytes.Equal(raw, data)) {
			t.Fatalf("Skip accepted %q, which is not canonical", data)
		}
		if !ok && want && bytes.Count(data, []byte("["))+bytes.Count(data, []byte("{")) <= maxDepth {
			t.Fatalf("Skip rejected canonical %q", data)
		}
	})
}
