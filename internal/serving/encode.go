package serving

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"scouts/internal/core"
	"scouts/internal/httpx"
)

// The predict answers are appended straight from core.Prediction into a
// pooled buffer, byte for byte what json.NewEncoder(w).Encode writes for
// the PredictResponse and BatchPredictResponse values they describe —
// encoding/json stays the definition (encode_test.go holds the encoder to
// it) — without building those values for reflection to walk.

// answerBufs pools the answer buffers, each empty (putAnswerBuf).
var answerBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// putAnswerBuf returns the buffer an answer was appended into, emptied,
// unless it grew past httpx.MaxPooledBuffer: one large batch answer must
// not pin its buffer in the pool.
func putAnswerBuf(bp *[]byte, answer []byte) {
	if cap(answer) <= httpx.MaxPooledBuffer {
		*bp = answer[:0]
		answerBufs.Put(bp)
	}
}

// writeAnswer answers 200 with an appended answer, json.Encoder's
// newline included — or, when the encoder refused a value, with the 500
// encoding/json answers it.
func (s *Server) writeAnswer(w http.ResponseWriter, answer []byte, err error) {
	if err != nil {
		s.web.WriteEncodeError(w, err)
		return
	}
	s.web.WriteBody(w, http.StatusOK, answer)
}

// appendPrediction appends p's PredictResponse as JSON.
func (m *servingModel) appendPrediction(dst []byte, p *core.Prediction) ([]byte, error) {
	team := m.scout.Team()
	dst = append(dst, `{"team":`...)
	dst = appendString(dst, team)
	dst = append(dst, `,"verdict":`...)
	dst = appendString(dst, string(p.Verdict))
	dst = append(dst, `,"responsible":`...)
	dst = strconv.AppendBool(dst, p.Responsible)
	dst = append(dst, `,"confidence":`...)
	dst, err := appendFloat(dst, p.Confidence)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"model":`...)
	dst = appendString(dst, p.Model)
	if len(p.Components) > 0 {
		dst = append(dst, `,"components":`...)
		dst = appendStrings(dst, p.Components)
	}
	dst = append(dst, `,"explanation":`...)
	if p.Text != "" {
		dst = appendString(dst, p.Text)
	} else {
		// An RF answer's explanation is rendered here, as the
		// recommendation is: into a stack buffer, never a string.
		var why [512]byte
		dst = appendString(dst, p.AppendExplanation(why[:0]))
	}
	dst = append(dst, `,"recommendation":`...)
	var rec [512]byte
	dst = appendString(dst, appendRecommendation(rec[:0], team, p))
	dst = append(dst, `,"model_version":`...)
	dst = strconv.AppendInt(dst, int64(m.version), 10)
	if h := &p.Health; p.HasHealth {
		dst = append(dst, `,"data_health":{"imputed_fraction":`...)
		if dst, err = appendFloat(dst, h.ImputedFraction()); err != nil {
			return dst, err
		}
		dst = append(dst, `,"dataset_coverage":`...)
		if dst, err = appendFloat(dst, h.DatasetCoverage()); err != nil {
			return dst, err
		}
		if len(h.DatasetsDown) > 0 {
			dst = append(dst, `,"datasets_down":`...)
			dst = appendStrings(dst, h.DatasetsDown)
		}
		dst = append(dst, `,"max_staleness_hours":`...)
		if dst, err = appendFloat(dst, h.MaxStaleness); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendStrings appends a non-empty list of strings as a JSON array.
func appendStrings(dst []byte, list []string) []byte {
	for i, s := range list {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json writes a float64: ES6 number
// formatting — 'f' inside [1e-6, 1e21), 'e' outside it with the
// exponent's leading zero dropped. NaN and ±Inf are refused with
// encoding/json's own error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s as a JSON string with encoding/json's escaping:
// HTML-safe (<, > and & as \u003c, \u003e, \u0026), U+2028 and U+2029
// escaped, each byte of invalid UTF-8 replaced by \ufffd, the short
// escapes for \b \f \n \r \t, \u00XX for the other control characters.
// s may be text rendered into a buffer: a string and its bytes append
// alike.
func appendString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
		// At most one rune's bytes are converted: no copy of s is made.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
