package httpx

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// PredictRequest is the predict API's input, POST /v1/predict's body: the
// incident as the incident manager sees it. Both daemons decode it —
// scoutd to score it, scoutgw to check its shape and shard it — so it
// lives here, where both reach it.
type PredictRequest struct {
	Title      string   `json:"title"`
	Body       string   `json:"body"`
	Components []string `json:"components,omitempty"`
	// Time is the trigger time in model hours. It is required and must be
	// positive: "now" is meaningless for the synthetic substrate, and a
	// zero Time would score the incident against the wrong monitoring
	// window, so missing/negative values are rejected with 400.
	Time float64 `json:"time"`
}

// BatchPredictRequest is the input of POST /v1/predict:batch: incidents
// scored against one model load.
type BatchPredictRequest struct {
	Items []PredictRequest `json:"items"`
}

// bodyBufs pools the request-body buffers of DecodePredict and
// DecodeBatch. Nothing decoded from a body aliases it, so a buffer goes
// back as soon as its request is decoded — unless a large body grew it
// past MaxPooledBuffer.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// MaxPooledBuffer is the largest capacity a pooled request or answer
// buffer may keep: a larger one is left to the collector, so one large
// batch does not pin its buffer in a pool for every later request.
const MaxPooledBuffer = 64 << 10

// DecodePredict decodes a POST /v1/predict body into req, under limit,
// with Decode's contract: it answers false after writing Decode's
// response for the same bytes. A body in canonical form (ParsePredict) is
// decoded without reflection; any other goes through Decode's strict
// path, which stays the definition.
func (sp *Spine) DecodePredict(w http.ResponseWriter, r *http.Request, limit int64, req *PredictRequest) bool {
	return sp.decodePooled(w, r, limit, req)
}

// DecodeBatch is DecodePredict for a POST /v1/predict:batch body
// (ParseBatch).
func (sp *Spine) DecodeBatch(w http.ResponseWriter, r *http.Request, limit int64, req *BatchPredictRequest) bool {
	return sp.decodePooled(w, r, limit, req)
}

// decodePooled reads the body once, under the cap, into a pooled buffer
// and lexes it. What the lexer does not take whole — or a read that
// failed, the cap included — the strict decoder is handed as the same
// bytes followed by the same error, which is what it would have read
// from the body itself: its answer depends only on that stream.
func (sp *Spine) decodePooled(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	bp := bodyBufs.Get().(*[]byte)
	raw, err := readBody((*bp)[:0], http.MaxBytesReader(w, r.Body, limit))
	if cap(raw) <= MaxPooledBuffer {
		*bp = raw[:0]
		defer bodyBufs.Put(bp)
	}
	if err == nil && parseCanonical(raw, v) {
		return true
	}
	var body io.Reader = bytes.NewReader(raw)
	if err != nil {
		body = io.MultiReader(body, errReader{err})
	}
	return sp.decodeStrict(w, body, v)
}

// ReadPredict is DecodePredict for a handler that forwards the body
// verbatim: the whole body is read under the cap, checked by decoding it
// into req, and returned. The body is the caller's — never pooled — so
// any number of attempts may go on reading it for as long as they live.
// Past the cap it answers 413 without decoding.
func (sp *Spine) ReadPredict(w http.ResponseWriter, r *http.Request, limit int64, req *PredictRequest) ([]byte, bool) {
	// Sized from the declared length, plus room to read the EOF into, so
	// a body is one allocation; a declared length is the client's word,
	// so it buys at most 64 KiB before a byte arrives.
	size := 512
	if n := r.ContentLength; n > 0 {
		size = int(min(n, limit, 64<<10)) + 1
	}
	raw, err := readBody(make([]byte, 0, size), http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		sp.rejectBody(w, err)
		return nil, false
	}
	if parseCanonical(raw, req) || sp.decodeStrict(w, bytes.NewReader(raw), req) {
		return raw, true
	}
	return nil, false
}

// readBody appends everything r yields to dst, up to EOF or the first
// error.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseCanonical lexes a body into v, one of the request types, resetting
// v when the lexer does not take the body whole: the strict decoder then
// starts from the zero value, as it would have.
func parseCanonical(body []byte, v any) bool {
	switch v := v.(type) {
	case *PredictRequest:
		if ParsePredict(body, v) {
			return true
		}
		*v = PredictRequest{}
	case *BatchPredictRequest:
		if ParseBatch(body, v) {
			return true
		}
		*v = BatchPredictRequest{}
	}
	return false
}

// ParsePredict decodes body into the zero value req without reflection
// when body is entirely in canonical form, and reports whether it was. A
// canonical body decodes exactly as the strict decoder (Decode) decodes
// it; what json.Marshal writes for a PredictRequest always is one. Every
// string of the body is unescaped into one arena the size of the body, and
// each field is a substring of it: the strings are copies, never views of
// body, and the request costs at most two allocations — the arena and
// Components.
// Canonical form is one JSON object, optionally surrounded and spaced by
// JSON whitespace, holding:
//
//   - keys among title, body, components and time, exact case, each at
//     most once, written without escapes;
//   - strings of valid UTF-8 with no control characters, escaped with the
//     short escapes or \uXXXX, surrogate pairs included (a lone surrogate
//     is not canonical);
//   - for components, an array of such strings;
//   - for time, a JSON number that strconv.ParseFloat accepts.
//
// Anything else — null, a case-variant or repeated key, invalid UTF-8,
// 1e400, data after the object — is left to the strict decoder, whose
// answer (a value or a 400 message) is the definition. On false, req
// holds whatever was lexed before the lexer gave up.
func ParsePredict(body []byte, req *PredictRequest) bool {
	l := lexer{b: body}
	return l.predict(req) && l.end()
}

// ParseBatch is ParsePredict for a BatchPredictRequest: one object whose
// only key is items, an array of canonical PredictRequest objects or null.
// Items is one exactly sized slice, and every item's Components is cut,
// clipped, from one more, so a batch costs at most three allocations
// whatever its item count.
func ParseBatch(body []byte, req *BatchPredictRequest) bool {
	l := lexer{b: body}
	if !l.eat('{') {
		return false
	}
	if l.eat('}') {
		return l.end()
	}
	if k, ok := l.key(); !ok || string(k) != "items" {
		return false
	}
	items, ok := l.itemList()
	req.Items = items
	return ok && l.eat('}') && l.end()
}

// lexer walks one body. In a dry walk it validates and counts but builds
// no string and no slice: that is how the decoder sizes a slice before
// filling it.
type lexer struct {
	b   []byte
	i   int
	dry bool
	// arena holds every string decoded so far, back to back. It is grown
	// to len(b) before the first write, and unescaping never lengthens a
	// string, so it never moves: each decoded string is a substring of it.
	arena strings.Builder
	// names is what is left of the arena Components lists are cut from;
	// listed counts, in a dry walk, the strings of the lists it passes.
	names  []string
	listed int
}

// space skips JSON whitespace.
func (l *lexer) space() {
	for l.i < len(l.b) {
		switch l.b[l.i] {
		case ' ', '\t', '\r', '\n':
			l.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace is left.
func (l *lexer) end() bool {
	l.space()
	return l.i == len(l.b)
}

// null consumes a null literal.
func (l *lexer) null() bool {
	l.space()
	if !bytes.HasPrefix(l.b[l.i:], []byte("null")) {
		return false
	}
	l.i += len("null")
	return true
}

// at reports whether the next token starts with c, skipping whitespace
// before it.
func (l *lexer) at(c byte) bool {
	l.space()
	return l.i < len(l.b) && l.b[l.i] == c
}

// eat consumes the one-byte token c.
func (l *lexer) eat(c byte) bool {
	if !l.at(c) {
		return false
	}
	l.i++
	return true
}

// key consumes `"k":` and returns k, which must be printable ASCII
// without escapes — every key the request types know is.
func (l *lexer) key() ([]byte, bool) {
	if !l.eat('"') {
		return nil, false
	}
	start := l.i
	for ; l.i < len(l.b); l.i++ {
		if c := l.b[l.i]; c == '"' {
			k := l.b[start:l.i]
			l.i++
			return k, l.eat(':')
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			return nil, false
		}
	}
	return nil, false
}

// Field bits of a PredictRequest object, for the at-most-once rule.
const (
	seenTitle = 1 << iota
	seenBody
	seenComponents
	seenTime
)

// predict lexes one PredictRequest object into req.
func (l *lexer) predict(req *PredictRequest) bool {
	if !l.eat('{') {
		return false
	}
	if l.eat('}') {
		return true
	}
	seen := 0
	for {
		k, ok := l.key()
		if !ok {
			return false
		}
		var bit int
		switch string(k) {
		case "title":
			bit = seenTitle
			req.Title, ok = l.str()
		case "body":
			bit = seenBody
			req.Body, ok = l.str()
		case "components":
			bit = seenComponents
			req.Components, ok = l.strList()
		case "time":
			bit = seenTime
			req.Time, ok = l.number()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if l.eat('}') {
			return true
		}
		if !l.eat(',') {
			return false
		}
	}
}

// itemList is strList for the items array, which may also be null: what
// json.Marshal writes for a nil Items, and what the strict decoder reads
// back as one.
func (l *lexer) itemList() ([]PredictRequest, bool) {
	if l.null() {
		return nil, true
	}
	if !l.at('[') {
		return nil, false
	}
	start, dry := l.i, l.dry
	l.dry, l.listed = true, 0
	n, ok := l.items(nil)
	l.dry = dry
	if !ok || dry {
		return nil, ok
	}
	l.i = start
	list := make([]PredictRequest, n)
	l.names = make([]string, l.listed)
	_, ok = l.items(list)
	return list, ok
}

// items lexes the items array into dst, or — dst nil, in a dry walk —
// counts them.
func (l *lexer) items(dst []PredictRequest) (int, bool) {
	if !l.eat('[') {
		return 0, false
	}
	if l.eat(']') {
		return 0, true
	}
	var scratch PredictRequest
	for n := 0; ; n++ {
		it := &scratch
		if dst != nil {
			if n == len(dst) {
				return 0, false
			}
			it = &dst[n]
		}
		if !l.predict(it) {
			return 0, false
		}
		if l.eat(']') {
			return n + 1, true
		}
		if !l.eat(',') {
			return 0, false
		}
	}
}

// strList lexes an array of strings into one exactly sized, clipped
// slice: a dry walk counts the strings, a second builds them. The slice is
// cut from the names a batch's dry walk sized, or made for the one list of
// a single request. Like encoding/json, it returns an empty, non-nil slice
// for [].
func (l *lexer) strList() ([]string, bool) {
	if !l.at('[') {
		return nil, false
	}
	start, dry := l.i, l.dry
	l.dry = true
	n, ok := l.strs(nil)
	l.dry = dry
	if !ok || dry {
		l.listed += n
		return nil, ok
	}
	if l.names == nil || len(l.names) < n {
		l.names = make([]string, n)
	}
	list := l.names[:n:n]
	l.names = l.names[n:]
	l.i = start
	_, ok = l.strs(list)
	return list, ok
}

// strs lexes an array of strings into dst, or counts them.
func (l *lexer) strs(dst []string) (int, bool) {
	if !l.eat('[') {
		return 0, false
	}
	if l.eat(']') {
		return 0, true
	}
	for n := 0; ; n++ {
		s, ok := l.str()
		if !ok {
			return 0, false
		}
		if dst != nil {
			if n == len(dst) {
				return 0, false
			}
			dst[n] = s
		}
		if l.eat(']') {
			return n + 1, true
		}
		if !l.eat(',') {
			return 0, false
		}
	}
}

// str lexes one canonical string and returns its value — "" in a dry
// walk — unescaped into the arena.
func (l *lexer) str() (string, bool) {
	if !l.eat('"') {
		return "", false
	}
	start := l.i
	escaped, ok := l.scanString()
	if !ok || l.dry || l.i-1 == start {
		return "", ok
	}
	raw := l.b[start : l.i-1]
	sb := &l.arena
	if sb.Cap() == 0 {
		sb.Grow(len(l.b))
	}
	from := sb.Len()
	if !escaped {
		sb.Write(raw)
		return sb.String()[from:], true
	}
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			sb.WriteByte(c)
			i++
			continue
		}
		switch c = raw[i+1]; c {
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, n := escapedRune(raw[i:])
			sb.WriteRune(r)
			i += n
			continue
		default: // '"', '\\', '/'
			sb.WriteByte(c)
		}
		i += 2
	}
	return sb.String()[from:], true
}

// scanString walks a string body from just after its opening quote to
// just past its closing one, reporting whether any escape occurs. It
// refuses what is not canonical: a control character, invalid UTF-8, an
// unknown escape, a lone surrogate, an unclosed string.
func (l *lexer) scanString() (escaped, ok bool) {
	b := l.b
	for i := l.i; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			l.i = i + 1
			return escaped, true
		case c == '\\':
			escaped = true
			if i+1 == len(b) {
				return false, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				_, n := escapedRune(b[i:])
				if n == 0 {
					return false, false
				}
				i += n
			default:
				return false, false
			}
		case c < ' ':
			return false, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return false, false
			}
			i += n
		}
	}
	return false, false
}

// escapedRune decodes the \uXXXX escape at the head of b — with the
// \uXXXX after it, when the first is a high surrogate — and returns the
// rune and the bytes it spans, 0 when it is malformed or a lone
// surrogate.
func escapedRune(b []byte) (rune, int) {
	r := hex4(b)
	if r < 0 {
		return 0, 0
	}
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	if len(b) >= 12 && b[6] == '\\' {
		if pair := utf16.DecodeRune(r, hex4(b[6:])); pair != utf8.RuneError {
			return pair, 12
		}
	}
	return 0, 0
}

// hex4 decodes `\uXXXX` at the head of b, -1 when it is not one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number lexes a JSON number — -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? —
// and parses it as encoding/json parses one into a float64. A number
// ParseFloat refuses (out of range) is not canonical.
func (l *lexer) number() (float64, bool) {
	l.space()
	b, start := l.b, l.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	l.i = i
	return f, true
}

// digits returns the index past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
