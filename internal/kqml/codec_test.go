package kqml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
)

// The reflected codec that the hand-written one replaced, kept here as the
// reference: refValue is the old constraint.Value encoding and the ref*
// structs mirror the hand-coded content types field for field.

type refValue struct{ v constraint.Value }

type refValueJSON struct {
	N *float64 `json:"n,omitempty"`
	S *string  `json:"s,omitempty"`
}

func (r refValue) MarshalJSON() ([]byte, error) {
	if r.v.Kind() == constraint.KindNumber {
		n := r.v.Number()
		return json.Marshal(refValueJSON{N: &n})
	}
	s := r.v.Text()
	return json.Marshal(refValueJSON{S: &s})
}

func (r *refValue) UnmarshalJSON(data []byte) error {
	var raw refValueJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch {
	case raw.N != nil && raw.S != nil:
		return fmt.Errorf("value cannot be both number and string")
	case raw.N != nil:
		r.v = constraint.Num(*raw.N)
	case raw.S != nil:
		r.v = constraint.Str(*raw.S)
	default:
		r.v = constraint.Str("")
	}
	return nil
}

type refSQLResult struct {
	Columns  []string           `json:"columns"`
	Rows     [][]refValue       `json:"rows"`
	Partial  bool               `json:"partial,omitempty"`
	Degraded []ClassDegradation `json:"degraded,omitempty"`
}

type refSubscribeAck struct {
	ID      string       `json:"id"`
	Initial refSQLResult `json:"initial"`
}

type refUpdateContent struct {
	SubscriptionID string       `json:"subscription_id"`
	SQL            string       `json:"sql"`
	Result         refSQLResult `json:"result"`
	Seq            uint64       `json:"seq,omitempty"`
	Coalesced      int          `json:"coalesced,omitempty"`
}

func toRef(res SQLResult) refSQLResult {
	out := refSQLResult{Columns: res.Columns, Partial: res.Partial, Degraded: res.Degraded}
	if res.Rows != nil {
		out.Rows = make([][]refValue, len(res.Rows))
		for i, row := range res.Rows {
			if row != nil {
				out.Rows[i] = make([]refValue, len(row))
				for j, v := range row {
					out.Rows[i][j] = refValue{v}
				}
			}
		}
	}
	return out
}

func fromRef(ref refSQLResult) SQLResult {
	out := SQLResult{Columns: ref.Columns, Partial: ref.Partial, Degraded: ref.Degraded}
	if ref.Rows != nil {
		out.Rows = make([]relational.Row, len(ref.Rows))
		for i, row := range ref.Rows {
			if row != nil {
				out.Rows[i] = make(relational.Row, len(row))
				for j, v := range row {
					out.Rows[i][j] = v.v
				}
			}
		}
	}
	return out
}

// reflectedContent encodes a payload the way SetContent did before the
// hand-written codec.
func reflectedContent(v any) ([]byte, error) {
	switch c := v.(type) {
	case *SQLResult:
		if c != nil {
			return json.Marshal(toRef(*c))
		}
	case *SubscribeAck:
		if c != nil {
			return json.Marshal(refSubscribeAck{ID: c.ID, Initial: toRef(c.Initial)})
		}
	case *UpdateContent:
		if c != nil {
			return json.Marshal(refUpdateContent{c.SubscriptionID, c.SQL, toRef(c.Result), c.Seq, c.Coalesced})
		}
	case *SQLQuery:
		return json.Marshal((*sqlQueryJSON)(c))
	}
	return json.Marshal(v)
}

// sameResult compares rows bit for bit (so -0 and 0 differ) and keeps the
// nil/empty distinction encoding/json keeps.
func sameResult(a, b SQLResult) bool {
	if !reflect.DeepEqual(a.Columns, b.Columns) || a.Partial != b.Partial ||
		!reflect.DeepEqual(a.Degraded, b.Degraded) || (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if (a.Rows[i] == nil) != (b.Rows[i] == nil) || len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.Kind() != y.Kind() || math.Float64bits(x.Number()) != math.Float64bits(y.Number()) || x.Text() != y.Text() {
				return false
			}
		}
	}
	return true
}

var codecFloats = []float64{
	0, math.Copysign(0, -1), 44, -3.25, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7,
	1e21, math.Nextafter(1e21, 0), 1e22, 123456789012, math.MaxFloat64, 5e-324,
}

var codecStrings = []string{
	"", "P1", "a<b>&c", "\x00\x1f\x7f\n\t", "\"\\", "caf\u00e9", "\u2028\u2029",
	"\xff\xfe", "ok\xe2\x80", "\U0001F600",
}

func randomCodecValue(rng *rand.Rand) constraint.Value {
	switch rng.Intn(5) {
	case 0:
		return constraint.Num(codecFloats[rng.Intn(len(codecFloats))])
	case 1:
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 1 // no JSON form; TestSQLResultNonFiniteIsError covers them
		}
		return constraint.Num(f)
	case 2:
		return constraint.Num(float64(rng.Intn(1000)))
	case 3:
		return constraint.Str(codecStrings[rng.Intn(len(codecStrings))])
	default:
		return constraint.Str(fmt.Sprintf("id-%d", rng.Intn(1000)))
	}
}

func randomResult(rng *rand.Rand) *SQLResult {
	res := &SQLResult{}
	if rng.Intn(8) > 0 {
		res.Columns = []string{}
		for i := rng.Intn(5); i > 0; i-- {
			res.Columns = append(res.Columns, codecStrings[rng.Intn(len(codecStrings))])
		}
	}
	if rng.Intn(8) > 0 {
		res.Rows = []relational.Row{}
		for i := rng.Intn(6); i > 0; i-- {
			var row relational.Row
			if rng.Intn(10) > 0 {
				row = relational.Row{}
				for j := rng.Intn(5); j > 0; j-- {
					row = append(row, randomCodecValue(rng))
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if rng.Intn(4) == 0 {
		res.Partial = true
		res.Degraded = []ClassDegradation{
			{Class: "C3"},
			{Class: "C<5>", Agents: []string{"RA1", "RA\u20282"}, Reason: "unreachable & gone"},
		}
	}
	return res
}

// codecContents returns one payload of every content type in the package,
// plus nil pointers of the hand-coded ones.
func codecContents(rng *rand.Rand) []any {
	ad := &ontology.Advertisement{
		Name: "RA<1>", Address: "tcp://127.0.0.1:4400", Type: ontology.TypeResource,
		Content: []ontology.Fragment{{Ontology: "healthcare", Classes: []string{"patient"},
			Constraints: constraint.MustParse("patient.patient_age between 43 and 75")}},
	}
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "healthcare", Classes: []string{"patient"}}
	inner := New(AskAll, "ua", &SQLQuery{SQL: "SELECT * FROM C2"})
	return []any{
		&AdvertiseContent{Ad: ad},
		&BrokerQuery{Query: q, HopsLeft: 2, Visited: []string{"B1"}, Forwarded: true, Depth: 1},
		&BrokerReply{Matches: []*ontology.Advertisement{ad}, Brokers: []string{"B1"}, Degraded: []string{"B2"}},
		&SQLQuery{SQL: "SELECT id, a FROM C3 WHERE a < 5 AND b <> 'x&y'"},
		randomResult(rng),
		&PingContent{AgentName: "RA1"},
		&PingReply{Known: true},
		&SorryContent{Reason: SorryReasonOutsideSpecialization + "; accepted by <B2>"},
		&SubscribeContent{SQL: "SELECT * FROM C2", SubscriberName: "mon", SubscriberAddress: "tcp://h:1"},
		&SubscribeAck{ID: "sub-1", Initial: *randomResult(rng)},
		&UpdateContent{SubscriptionID: "sub-1", SQL: "SELECT 1", Result: *randomResult(rng), Seq: 42, Coalesced: 3},
		&UpdateContent{SubscriptionID: "sub-2", Result: *randomResult(rng)},
		&UpdateAck{SubscriptionID: "sub-1", Seq: 7},
		&UpdateAck{},
		&UnsubscribeContent{ID: "sub-1"},
		&UnsubscribeAck{ID: "sub-1"},
		&RecruitContent{Query: q, Embedded: inner},
		&RecruitReply{Agent: "RA1", Reply: inner},
		&OntologyRequest{Name: "healthcare"},
		&OntologyReply{Name: "healthcare", Classes: []ontology.Class{{Name: "patient"}}},
		&MonitorSnapshotRequest{Version: 1},
		&MonitorSnapshot{Version: 1, Agent: "B1", Gauges: map[string]map[string]float64{"g": {"": 1.5e-9}}},
		(*SQLQuery)(nil), (*SQLResult)(nil), (*SubscribeAck)(nil), (*UpdateContent)(nil),
	}
}

// codecEnvelope fills every envelope field, some with bytes that need
// escaping, and a trace and provenance on some messages.
func codecEnvelope(rng *rand.Rand, content any) *Message {
	m := New(Tell, "RA1 <resource> agent", content)
	pick := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return codecStrings[rng.Intn(len(codecStrings))] + "x"
	}
	m.Receiver, m.ReplyTo, m.Language, m.Ontology = pick(), pick(), pick(), pick()
	m.ReplyWith, m.InReplyTo, m.TraceID = pick(), pick(), pick()
	if rng.Intn(3) == 0 {
		m.Trace = []TraceSpan{{Agent: "B<1>", Op: OpBrokerSearch, Hop: 1, Start: 12345, DurationMicros: 17}}
		m.Provenance = []ProvEvent{{Kind: ProvPushdown, Agent: "RA1",
			Pushdown: &PushdownDecision{Class: "C2", Pushed: []string{"a < 5"}}}}
	}
	return m
}

// TestCodecMatchesReflected is the byte-compatibility test: for every
// content type and for envelopes with every field, the hand-written
// encoder writes the bytes the reflected encoder wrote, and decoding
// gives what the reflected decoder gives.
func TestCodecMatchesReflected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		for _, c := range codecContents(rng) {
			want, err := reflectedContent(c)
			if err != nil {
				t.Fatalf("%T: reflected encoder: %v", c, err)
			}
			var m Message
			if err := m.SetContent(c); err != nil {
				t.Fatalf("%T: %v", c, err)
			}
			if !bytes.Equal(m.Content, want) {
				t.Fatalf("%T content:\n got  %s\n want %s", c, m.Content, want)
			}

			env := codecEnvelope(rng, c)
			frame, err := Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			wantFrame, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, wantFrame) {
				t.Fatalf("%T frame:\n got  %s\n want %s", c, frame, wantFrame)
			}
			got, err := Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			var ref Message
			if err := json.Unmarshal(frame, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, &ref) {
				t.Fatalf("%T frame decoded as\n %+v\nwant\n %+v", c, got, &ref)
			}
		}
	}
}

// TestSQLResultRowsRoundTrip decodes random answers, edge numbers and
// strings included, through DecodeContent and compares them with the
// reflected decoder.
func TestSQLResultRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		res := randomResult(rng)
		m := New(Tell, "RA1", res)
		var got SQLResult
		if err := m.DecodeContent(&got); err != nil {
			t.Fatal(err)
		}
		var ref refSQLResult
		if err := json.Unmarshal(m.Content, &ref); err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, fromRef(ref)) {
			t.Fatalf("%s: decoded %+v, reflected %+v", m.Content, got, fromRef(ref))
		}
		// Rows share blocks of values; appending to one must not write
		// into the next.
		for _, row := range got.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %v has spare capacity %d", m.Content, row, cap(row)-len(row))
			}
		}
	}
}

// TestSQLResultNonFiniteIsError checks that NaN and the infinities, which
// have no JSON form, still fail to encode.
func TestSQLResultNonFiniteIsError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &SQLResult{Columns: []string{"a", "b"}, Rows: []relational.Row{{constraint.Str("x"), constraint.Num(f)}}}
		var m Message
		if err := m.SetContent(res); err == nil {
			t.Errorf("%v: SetContent succeeded with %s", f, m.Content)
		}
		if _, err := reflectedContent(res); err == nil {
			t.Errorf("%v: reflected encoder succeeded", f)
		}
		if err := m.SetContent(&UpdateContent{Result: *res}); err == nil {
			t.Errorf("%v: update SetContent succeeded", f)
		}
	}
}

// TestUnmarshalNonCanonicalFrames feeds frames another JSON encoder could
// produce — whitespace, reordered and unknown keys, raw HTML bytes in the
// content — and checks that they decode as encoding/json decodes them and
// re-encode to the bytes the reflected encoder writes.
func TestUnmarshalNonCanonicalFrames(t *testing.T) {
	for _, frame := range []string{
		`{ "performative": "tell", "sender": "RA1", "content": {"sql": "SELECT 1"} }`,
		`{"sender":"RA1","performative":"tell","content":{"sql":"SELECT 1"}}`,
		`{"performative":"tell","sender":"RA1","extra":[1,2],"content":{"sql":"a<b"}}`,
		`{"performative":"tell","sender":"RA1","content":{"sql":"a<b>&c"}}`,
		`{"performative":"tell","sender":"RA1","content":{"sql":"a` + "\u2028" + `b"}}`,
		`{"performative":"tell","sender":"R` + "\u00e9" + `1","content":{"columns":["a"],"rows":[[{"n":1e0}]]}}`,
		`{"performative":"tell","sender":"RA1","content":null}`,
		`{"performative":"tell","sender":"RA1","trace":[{"agent":"B1","op":"x"}],"content":[1, 2]}`,
	} {
		got, err := Unmarshal([]byte(frame))
		if err != nil {
			t.Fatalf("%s: %v", frame, err)
		}
		var ref Message
		if err := json.Unmarshal([]byte(frame), &ref); err != nil {
			t.Fatal(err)
		}
		out, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s re-encoded as\n %s\nwant\n %s", frame, out, want)
		}
	}
	for _, bad := range []string{
		`{"performative":"tell","sender":"RA1","content":{"sql":}}`,
		`{"performative":"tell","sender":"RA1","content":"x` + "\x01" + `"}`,
		`{"performative":"tell","sender":"RA1","content":1}x`,
		`{"performative":"tell","sender":"RA1","content":01}`,
		`{"sender":"RA1"}`,
	} {
		if m, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", bad, m)
		}
	}
}

// FuzzSQLResultJSON checks that decoding any input gives the answer and
// the success or failure the reflected decoder gives.
func FuzzSQLResultJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		b, _ := randomResult(rng).AppendJSON(nil)
		f.Add(b)
	}
	for _, seed := range []string{
		`{"columns":null,"rows":null}`, `{"columns":[],"rows":[]}`, `{"columns":["a"],"rows":[null,[]]}`,
		`{"columns":["a"],"rows":[[{}]]}`, `{"columns":["a"],"rows":[[{"n":1,"s":"x"}]]}`,
		`{"rows":[[{"n":1}]],"columns":["a"]}`, ` {"columns" : ["a"], "rows" : [ [ {"n" : 1} ] ] } `,
		`{"columns":["a"],"rows":[],"partial":true,"degraded":[{"class":"C","agents":["x"],"reason":"r"}]}`,
		`{"columns":["a"],"rows":[],"degraded":null}`, `{"columns":["<"],"rows":[]}`,
		`{"columns":["a"],"rows":[[{"n":1e400}]]}`, `{"columns":["a"],"rows":[[{"s":"x"}]],"x":1}`,
		`{"Columns":["a"],"ROWS":[]}`, `null`, `{}`, `[]`, `{"columns":["a"],"rows":[[{"n":1}],]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refSQLResult
		refErr := json.Unmarshal(data, &ref)
		var got SQLResult
		err := got.UnmarshalJSON(data)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%q: err = %v, reflected err = %v", data, err, refErr)
		}
		if err == nil && !sameResult(got, fromRef(ref)) {
			t.Fatalf("%q: decoded %+v, reflected %+v", data, got, fromRef(ref))
		}
	})
}

// FuzzUnmarshalFrame checks that any frame decodes to the message, and
// fails where, encoding/json decodes it, and that re-encoding it writes
// what the reflected encoder writes.
func FuzzUnmarshalFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range codecContents(rng)[:12] {
		b, _ := Marshal(codecEnvelope(rng, c))
		f.Add(b)
	}
	f.Add([]byte(`{"performative":"tell","sender":"x","content":{ "a" : [1,true,null,"<"] }}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Message
		refErr := json.Unmarshal(data, &ref)
		if refErr == nil && ref.Performative == "" {
			refErr = fmt.Errorf("missing performative")
		}
		got, err := Unmarshal(data)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%q: err = %v, reflected err = %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		want, wantErr := json.Marshal(&ref)
		out, outErr := Marshal(got)
		if (outErr != nil) != (wantErr != nil) || !bytes.Equal(out, want) {
			t.Fatalf("%q re-encoded as %s (%v), want %s (%v)", data, out, outErr, want, wantErr)
		}
	})
}

// BenchmarkSQLResultRoundTrip runs one answer of 100 rows by 5 columns
// through the whole codec: SetContent, Marshal, Unmarshal, DecodeContent.
// CI fails if its allocs/op grows.
func BenchmarkSQLResultRoundTrip(b *testing.B) {
	res := &SQLResult{Columns: []string{"id", "a", "b", "c", "d"}}
	for i := 0; i < 100; i++ {
		res.Rows = append(res.Rows, relational.Row{
			constraint.Str(fmt.Sprintf("c3-%d", i)), constraint.Num(float64(i * 7 % 1000)),
			constraint.Num(float64(i % 100)), constraint.Num(float64(i*37%1000) + 0.5), constraint.Num(float64(i * 11 % 1000)),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &Message{Performative: Tell, Sender: "RA1", Receiver: "MRQ", InReplyTo: "q17"}
		if err := m.SetContent(res); err != nil {
			b.Fatal(err)
		}
		frame, err := Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			b.Fatal(err)
		}
		var out SQLResult
		if err := got.DecodeContent(&out); err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) != len(res.Rows) {
			b.Fatalf("decoded %d rows", len(out.Rows))
		}
	}
}
