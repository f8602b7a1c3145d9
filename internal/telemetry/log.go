package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RequestIDKey is the context key RequestID looks up. A context that
// carries a request ID answers it with a value whose RequestID method
// returns the ID: the serving middleware's per-request record answers
// with itself, so stamping an ID adds no context node.
type RequestIDKey struct{}

// RequestID returns the context's request ID, or "" when none was set
// (library calls outside a request, tests). The serving middleware mints
// the ID once per request; everything downstream — the batch scorer,
// degradation fallbacks, access logs — reads it back here, so one
// incident's trip through the stack is grep-able end to end.
func RequestID(ctx context.Context) string {
	if c, _ := ctx.Value(RequestIDKey{}).(interface{ RequestID() string }); c != nil {
		return c.RequestID()
	}
	return ""
}

// Field is one key/value pair of a structured log line. Fields render in
// the order given, so a line's layout is deterministic.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger writes JSON-lines structured logs: one object per line, an
// "event" discriminator first, then the fields in call order. A nil
// *Logger is a valid no-op logger, so instrumented code logs
// unconditionally and the caller decides by wiring.
//
// The wall clock is injected: Now, when set (binaries set it to
// time.Now), adds a "ts" RFC3339Nano field; left nil (libraries, tests)
// lines carry no timestamp and log output is bit-reproducible.
type Logger struct {
	mu   sync.Mutex
	w    io.Writer
	base []Field

	// Now stamps each line's "ts" field; nil omits the field entirely.
	Now func() time.Time
}

// NewLogger builds a logger over w with optional constant fields
// (component names, instance IDs) prepended to every line.
func NewLogger(w io.Writer, base ...Field) *Logger {
	return &Logger{w: w, base: base}
}

// Log emits one line. Marshal failures degrade to a quoted %v rendering
// of the offending value — a log line must never be lost to its payload.
func (l *Logger) Log(event string, fields ...Field) {
	if l == nil || l.w == nil {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(`{"event":`)
	appendJSON(&buf, event)
	if l.Now != nil {
		buf.WriteString(`,"ts":`)
		appendJSON(&buf, l.Now().UTC().Format(time.RFC3339Nano))
	}
	for _, f := range l.base {
		appendField(&buf, f)
	}
	for _, f := range fields {
		appendField(&buf, f)
	}
	buf.WriteString("}\n")
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(buf.Bytes())
}

func appendField(buf *bytes.Buffer, f Field) {
	if f.Key == "" {
		return
	}
	buf.WriteByte(',')
	appendJSON(buf, f.Key)
	buf.WriteByte(':')
	appendJSON(buf, f.Value)
}

func appendJSON(buf *bytes.Buffer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	buf.Write(b)
}
