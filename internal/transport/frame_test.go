package transport

import (
	"bytes"
	"io"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/relational"
)

// writeFrame sends a bare payload as one frame, for tests that write raw
// frames.
func writeFrame(w io.Writer, payload []byte) error {
	return sendFrame(w, append(make([]byte, frameHeader, frameHeader+len(payload)), payload...))
}

// countingWriter counts Write calls: on a connection each is a syscall.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameIsOneWrite checks that a frame — length prefix and message —
// goes out in one Write and reads back as the message's wire form.
func TestFrameIsOneWrite(t *testing.T) {
	msg := kqml.New(kqml.Tell, "RA1", &kqml.SQLResult{
		Columns: []string{"id", "a"},
		Rows:    []relational.Row{{relational.Str("c3-1"), relational.Num(44)}},
	})
	msg.InReplyTo = "q1"
	frame, err := encodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	var w countingWriter
	if err := sendFrame(&w, frame); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Errorf("frame took %d writes, want 1", w.writes)
	}
	payload, err := readFrame(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kqml.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Errorf("payload = %s, want %s", payload, want)
	}
}
