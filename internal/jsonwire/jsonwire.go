// Package jsonwire writes and reads the JSON that InfoSleuth agents put on
// the wire, without reflection.
//
// The writers produce exactly the bytes encoding/json's Marshal produces
// for the same Go values: strings get its HTML-safe escaping, invalid UTF-8
// becomes \ufffd, U+2028 and U+2029 are escaped, and numbers use its ES6
// formatting. The Reader accepts only that canonical form — no whitespace,
// object keys in declaration order — and otherwise marks itself failed, so
// the caller hands the input to encoding/json and keeps its semantics
// (errors included) for every input the fast path does not handle.
package jsonwire

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe[b] reports whether ASCII byte b stands for itself inside a string:
// printable, and none of the quote, backslash or HTML-special bytes.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range []byte(`"\<>&`) {
		t[b] = false
	}
	return t
}()

// plain[b] reports whether byte b inside a string needs no look by Skip:
// anything but the quote, the backslash, control bytes, the HTML-special
// bytes and 0xE2, which starts U+2028 and U+2029.
var plain = func() (t [256]bool) {
	for b := 0x20; b < 256; b++ {
		t[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[b] = false
	}
	return t
}()

// AppendString appends s as a JSON string, escaped as encoding/json
// escapes it.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64. NaN and the
// infinities have no JSON form and return json's UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && (f != 0 || !math.Signbit(f)) {
		// Whole numbers print as their digits either way; this skips the
		// shortest-representation search.
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim a zero-padded exponent: e-07 becomes e-7.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendStrings appends ss as a JSON array of strings; nil is null, as
// encoding/json writes a nil slice.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// A Reader parses canonical JSON from a byte slice. Every method consumes
// one token or literal; on input it does not handle it marks the reader
// failed, after which all methods are no-ops returning zero values. A
// caller reads a whole value and then asks End whether it succeeded.
type Reader struct {
	data   []byte
	pos    int
	failed bool
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// End reports whether every read succeeded and consumed all the input.
func (r *Reader) End() bool { return !r.failed && r.pos == len(r.data) }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Fail marks the reader failed.
func (r *Reader) Fail() { r.failed = true }

// Lit consumes s if the input continues with it and reports whether it
// did. A missing literal does not fail the reader: Lit is how optional
// keys are probed.
func (r *Reader) Lit(s string) bool {
	if r.failed || len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// Expect consumes s, failing the reader if the input does not continue
// with it.
func (r *Reader) Expect(s string) {
	if !r.Lit(s) {
		r.failed = true
	}
}

// Null consumes a null literal if one is next and reports whether it did.
func (r *Reader) Null() bool { return r.Lit("null") }

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.Lit("true") {
		return true
	}
	r.Expect("false")
	return false
}

// String reads a JSON string. Strings with escapes or non-ASCII bytes are
// rare on the wire; those are checked or decoded by encoding/json so the
// result matches it exactly, invalid UTF-8 included.
func (r *Reader) String() string {
	d := r.data
	if r.failed || r.pos >= len(d) || d[r.pos] != '"' {
		r.failed = true
		return ""
	}
	start := r.pos + 1
	escaped, nonASCII := false, false
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			if escaped || nonASCII && !utf8.Valid(d[start:i]) {
				var s string
				if json.Unmarshal(d[start-1:i+1], &s) != nil {
					r.failed = true
				}
				return s
			}
			return string(d[start:i])
		case c == '\\':
			escaped = true
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			r.failed = true
			return ""
		case c >= utf8.RuneSelf:
			nonASCII = true
		}
	}
	r.failed = true
	return ""
}

// Strings reads an array of strings, or null as a nil slice.
func (r *Reader) Strings() []string {
	if r.Null() {
		return nil
	}
	r.Expect("[")
	var buf [16]string
	out := buf[:0]
	if !r.Lit("]") {
		for {
			out = append(out, r.String())
			if !r.Lit(",") {
				break
			}
		}
		r.Expect("]")
	}
	return append(make([]string, 0, len(out)), out...)
}

// Float reads a number as a float64, rounding as strconv.ParseFloat does.
func (r *Reader) Float() float64 {
	tok := r.number()
	if r.failed {
		return 0
	}
	// Whole numbers below 2^53 convert exactly; ParseFloat needs the
	// token as a string, which allocates.
	mag := tok
	if tok[0] == '-' {
		mag = tok[1:]
	}
	if n, ok := digits(mag); ok && n < 1<<53 {
		f := float64(n)
		if len(mag) < len(tok) {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.failed = true
	}
	return f
}

// Int reads an integer that fits an int64 with room to spare; any other
// number fails the reader.
func (r *Reader) Int() int64 {
	tok := r.number()
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	n, ok := digits(tok)
	if r.failed || !ok {
		r.failed = true
		return 0
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// Uint reads a non-negative integer below 10^18; any other number fails
// the reader.
func (r *Reader) Uint() uint64 {
	tok := r.number()
	n, ok := digits(tok)
	if r.failed || !ok {
		r.failed = true
		return 0
	}
	return n
}

// Skip consumes one JSON value and returns its bytes. It fails the reader
// unless the value is valid and already in the form encoding/json's
// Marshal would re-emit it: no whitespace, and no raw '<', '>', '&',
// U+2028 or U+2029 inside strings. Splicing a skipped value into new
// output therefore gives the bytes Marshal would give.
func (r *Reader) Skip() []byte {
	start := r.pos
	r.skip(0)
	if r.failed {
		return nil
	}
	return r.data[start:r.pos:r.pos]
}

// Decode skips one value and decodes it into v with encoding/json.
func (r *Reader) Decode(v any) {
	raw := r.Skip()
	if !r.failed && json.Unmarshal(raw, v) != nil {
		r.failed = true
	}
}

// maxDepth bounds the nesting Skip follows; deeper values are left to
// encoding/json.
const maxDepth = 512

func (r *Reader) skip(depth int) {
	if r.failed || r.pos >= len(r.data) || depth > maxDepth {
		r.failed = true
		return
	}
	switch r.data[r.pos] {
	case '{':
		r.pos++
		if r.Lit("}") {
			return
		}
		for {
			r.skipString()
			r.Expect(":")
			r.skip(depth + 1)
			if !r.Lit(",") {
				break
			}
		}
		r.Expect("}")
	case '[':
		r.pos++
		if r.Lit("]") {
			return
		}
		for {
			r.skip(depth + 1)
			if !r.Lit(",") {
				break
			}
		}
		r.Expect("]")
	case '"':
		r.skipString()
	case 't':
		r.Expect("true")
	case 'f':
		r.Expect("false")
	case 'n':
		r.Expect("null")
	default:
		r.number()
	}
}

// skipString consumes one string, validating its escapes.
func (r *Reader) skipString() {
	d := r.data
	if r.failed || r.pos >= len(d) || d[r.pos] != '"' {
		r.failed = true
		return
	}
	for i := r.pos + 1; i < len(d); i++ {
		for i < len(d) && plain[d[i]] {
			i++
		}
		if i == len(d) {
			break
		}
		switch c := d[i]; c {
		case '"':
			r.pos = i + 1
			return
		case '\\':
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				continue
			case 'u':
				if i+4 < len(d) && isHex(d[i+1]) && isHex(d[i+2]) && isHex(d[i+3]) && isHex(d[i+4]) {
					i += 4
					continue
				}
			}
			r.failed = true
			return
		case '<', '>', '&':
			r.failed = true
			return
		case 0xE2:
			if i+2 < len(d) && d[i+1] == 0x80 && d[i+2]&^1 == 0xA8 {
				r.failed = true
				return
			}
		default:
			if c < 0x20 {
				r.failed = true
				return
			}
		}
	}
	r.failed = true
}

// number consumes one token of the JSON number grammar and returns it.
func (r *Reader) number() []byte {
	if r.failed {
		return nil
	}
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		r.failed = true
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i = skipDigits(d, i+1); d[i-1] == '.' {
			r.failed = true
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := skipDigits(d, i); j > i {
			i = j
		} else {
			r.failed = true
			return nil
		}
	}
	tok := d[r.pos:i]
	r.pos = i
	return tok
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// digits parses a run of at most 18 decimal digits.
func digits(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 18 {
		return 0, false
	}
	var n uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
