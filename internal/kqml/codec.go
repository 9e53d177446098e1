package kqml

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"infosleuth/internal/jsonwire"
	"infosleuth/internal/relational"
)

// The wire form of a message is the JSON encoding/json gives the Message
// struct. The envelope and the content types that carry SQL — asks,
// answers, subscription baselines and updates — are written and read here
// by hand, in one pass and without reflection; every other content type
// goes through encoding/json. Readers take the canonical form the writers
// produce and hand anything else — whitespace, reordered or unknown keys —
// to encoding/json, so decoding keeps its semantics.

// jsonAppender is a content type that writes its own JSON; SetContent
// stores its output as is.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// SetContent encodes a payload into the message.
func (m *Message) SetContent(v any) error {
	var data []byte
	var err error
	if a, ok := v.(jsonAppender); ok {
		data, err = a.AppendJSON(nil)
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return fmt.Errorf("kqml: encoding %T content: %w", v, err)
	}
	m.Content = data
	return nil
}

// DecodeContent decodes the message payload into v. Content is valid,
// compact JSON — SetContent wrote it or Unmarshal checked it — so a type
// with its own parser gets the bytes without encoding/json's validation
// pass.
func (m *Message) DecodeContent(v any) error {
	if len(m.Content) == 0 {
		return fmt.Errorf("kqml: %s message from %s has no content", m.Performative, m.Sender)
	}
	var err error
	if u, ok := v.(json.Unmarshaler); ok {
		err = u.UnmarshalJSON(m.Content)
	} else {
		err = json.Unmarshal(m.Content, v)
	}
	if err != nil {
		return fmt.Errorf("kqml: decoding %s content into %T: %w", m.Performative, v, err)
	}
	return nil
}

// Marshal frames a message for the wire.
func Marshal(m *Message) ([]byte, error) { return AppendMarshal(nil, m) }

// AppendMarshal appends the message's wire form to dst. Content is copied
// in as it is.
func AppendMarshal(dst []byte, m *Message) ([]byte, error) {
	dst = slices.Grow(dst, len(m.Content)+256)
	dst = append(dst, `{"performative":`...)
	dst = jsonwire.AppendString(dst, string(m.Performative))
	dst = append(dst, `,"sender":`...)
	dst = jsonwire.AppendString(dst, m.Sender)
	dst = appendOpt(dst, `,"receiver":`, m.Receiver)
	dst = appendOpt(dst, `,"reply-to":`, m.ReplyTo)
	dst = appendOpt(dst, `,"language":`, m.Language)
	dst = appendOpt(dst, `,"ontology":`, m.Ontology)
	dst = appendOpt(dst, `,"reply-with":`, m.ReplyWith)
	dst = appendOpt(dst, `,"in-reply-to":`, m.InReplyTo)
	dst = appendOpt(dst, `,"trace-id":`, m.TraceID)
	// Untraced conversations leave Trace and Provenance empty, so these
	// stay on encoding/json.
	if len(m.Trace) > 0 {
		b, err := json.Marshal(m.Trace)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"trace":`...), b...)
	}
	if len(m.Provenance) > 0 {
		b, err := json.Marshal(m.Provenance)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"provenance":`...), b...)
	}
	if len(m.Content) > 0 {
		dst = append(append(dst, `,"content":`...), m.Content...)
	}
	return append(dst, '}'), nil
}

func appendOpt(dst []byte, key, val string) []byte {
	if val == "" {
		return dst
	}
	return jsonwire.AppendString(append(dst, key...), val)
}

// Unmarshal parses a wire frame. The message's Content aliases data.
func Unmarshal(data []byte) (*Message, error) {
	m := new(Message)
	r := jsonwire.NewReader(data)
	if m.readJSON(&r); !r.End() {
		*m = Message{}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("kqml: bad message frame: %w", err)
		}
		if len(m.Content) > 0 {
			// Compact the content now, as Marshal used to on every send,
			// so forwarding it writes the bytes encoding/json would. The
			// content was just validated; this cannot fail.
			m.Content, _ = json.Marshal(m.Content)
		}
	}
	if m.Performative == "" {
		return nil, fmt.Errorf("kqml: message missing performative")
	}
	return m, nil
}

func (m *Message) readJSON(r *jsonwire.Reader) {
	r.Expect(`{"performative":`)
	m.Performative = Performative(r.String())
	r.Expect(`,"sender":`)
	m.Sender = r.String()
	m.Receiver = readOpt(r, `,"receiver":`)
	m.ReplyTo = readOpt(r, `,"reply-to":`)
	m.Language = readOpt(r, `,"language":`)
	m.Ontology = readOpt(r, `,"ontology":`)
	m.ReplyWith = readOpt(r, `,"reply-with":`)
	m.InReplyTo = readOpt(r, `,"in-reply-to":`)
	m.TraceID = readOpt(r, `,"trace-id":`)
	if r.Lit(`,"trace":`) {
		r.Decode(&m.Trace)
	}
	if r.Lit(`,"provenance":`) {
		r.Decode(&m.Provenance)
	}
	if r.Lit(`,"content":`) {
		m.Content = r.Skip()
	}
	r.Expect("}")
}

func readOpt(r *jsonwire.Reader, key string) string {
	if r.Lit(key) {
		return r.String()
	}
	return ""
}

// unmarshalContent reads data into *dst with read when data is in
// canonical form; otherwise encoding/json decodes it into slow, which is
// dst converted to a method-free type with the same fields. Like
// encoding/json, fields absent from data keep their values.
func unmarshalContent[T any](data []byte, dst *T, read func(*T, *jsonwire.Reader), slow any) error {
	v := *dst
	r := jsonwire.NewReader(data)
	if read(&v, &r); r.End() {
		*dst = v
		return nil
	}
	return json.Unmarshal(data, slow)
}

// Method-free copies of the hand-coded content types, for encoding/json.
type (
	sqlQueryJSON      SQLQuery
	sqlResultJSON     SQLResult
	subscribeAckJSON  SubscribeAck
	updateContentJSON UpdateContent
)

// AppendJSON appends the query's JSON form.
func (q *SQLQuery) AppendJSON(dst []byte) ([]byte, error) {
	if q == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendString(append(dst, `{"sql":`...), q.SQL)
	return append(dst, '}'), nil
}

func (q *SQLQuery) readJSON(r *jsonwire.Reader) {
	r.Expect(`{"sql":`)
	q.SQL = r.String()
	r.Expect("}")
}

// UnmarshalJSON implements json.Unmarshaler.
func (q *SQLQuery) UnmarshalJSON(data []byte) error {
	return unmarshalContent(data, q, (*SQLQuery).readJSON, (*sqlQueryJSON)(q))
}

// AppendJSON appends the answer's JSON form. A number with no JSON form
// (NaN, ±Inf) in a row is an error.
func (res *SQLResult) AppendJSON(dst []byte) ([]byte, error) {
	if res == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendStrings(append(dst, `{"columns":`...), res.Columns)
	dst, err := relational.AppendRowsJSON(append(dst, `,"rows":`...), res.Rows)
	if err != nil {
		return dst, err
	}
	if res.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(res.Degraded) > 0 {
		dst = append(dst, `,"degraded":[`...)
		for i, d := range res.Degraded {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendString(append(dst, `{"class":`...), d.Class)
			if len(d.Agents) > 0 {
				dst = jsonwire.AppendStrings(append(dst, `,"agents":`...), d.Agents)
			}
			dst = appendOpt(dst, `,"reason":`, d.Reason)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func (res *SQLResult) readJSON(r *jsonwire.Reader) {
	r.Expect(`{"columns":`)
	res.Columns = r.Strings()
	r.Expect(`,"rows":`)
	res.Rows = relational.ReadRowsJSON(r)
	if r.Lit(`,"partial":`) {
		res.Partial = r.Bool()
	}
	if r.Lit(`,"degraded":`) {
		res.Degraded = readDegraded(r)
	}
	r.Expect("}")
}

func readDegraded(r *jsonwire.Reader) []ClassDegradation {
	if r.Null() {
		return nil
	}
	r.Expect("[")
	out := []ClassDegradation{}
	if r.Lit("]") {
		return out
	}
	for {
		var d ClassDegradation
		r.Expect(`{"class":`)
		d.Class = r.String()
		if r.Lit(`,"agents":`) {
			d.Agents = r.Strings()
		}
		d.Reason = readOpt(r, `,"reason":`)
		r.Expect("}")
		out = append(out, d)
		if !r.Lit(",") {
			break
		}
	}
	r.Expect("]")
	return out
}

// UnmarshalJSON implements json.Unmarshaler.
func (res *SQLResult) UnmarshalJSON(data []byte) error {
	return unmarshalContent(data, res, (*SQLResult).readJSON, (*sqlResultJSON)(res))
}

// AppendJSON appends the acknowledgement's JSON form.
func (a *SubscribeAck) AppendJSON(dst []byte) ([]byte, error) {
	if a == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendString(append(dst, `{"id":`...), a.ID)
	dst, err := a.Initial.AppendJSON(append(dst, `,"initial":`...))
	return append(dst, '}'), err
}

func (a *SubscribeAck) readJSON(r *jsonwire.Reader) {
	r.Expect(`{"id":`)
	a.ID = r.String()
	r.Expect(`,"initial":`)
	a.Initial.readJSON(r)
	r.Expect("}")
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *SubscribeAck) UnmarshalJSON(data []byte) error {
	return unmarshalContent(data, a, (*SubscribeAck).readJSON, (*subscribeAckJSON)(a))
}

// AppendJSON appends the notification's JSON form.
func (u *UpdateContent) AppendJSON(dst []byte) ([]byte, error) {
	if u == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonwire.AppendString(append(dst, `{"subscription_id":`...), u.SubscriptionID)
	dst = jsonwire.AppendString(append(dst, `,"sql":`...), u.SQL)
	dst, err := u.Result.AppendJSON(append(dst, `,"result":`...))
	if err != nil {
		return dst, err
	}
	if u.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), u.Seq, 10)
	}
	if u.Coalesced != 0 {
		dst = strconv.AppendInt(append(dst, `,"coalesced":`...), int64(u.Coalesced), 10)
	}
	return append(dst, '}'), nil
}

func (u *UpdateContent) readJSON(r *jsonwire.Reader) {
	r.Expect(`{"subscription_id":`)
	u.SubscriptionID = r.String()
	r.Expect(`,"sql":`)
	u.SQL = r.String()
	r.Expect(`,"result":`)
	u.Result.readJSON(r)
	if r.Lit(`,"seq":`) {
		u.Seq = r.Uint()
	}
	if r.Lit(`,"coalesced":`) {
		u.Coalesced = int(r.Int())
	}
	r.Expect("}")
}

// UnmarshalJSON implements json.Unmarshaler.
func (u *UpdateContent) UnmarshalJSON(data []byte) error {
	return unmarshalContent(data, u, (*UpdateContent).readJSON, (*updateContentJSON)(u))
}
