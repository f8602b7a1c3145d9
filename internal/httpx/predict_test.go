package httpx

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"unicode/utf8"
)

// codecLimit is the fuzz target's body cap: small enough that mutated
// seeds cross it.
const codecLimit = 512

// answered is one decode's outcome: the value, whether it was accepted,
// and the response written when it was not.
type answered struct {
	ok     bool
	status int
	body   string
	value  any
}

func post(body []byte) *http.Request {
	return httptest.NewRequest("POST", "/", bytes.NewReader(body))
}

// viaStrict is the definition: Spine.Decode.
func viaStrict(sp *Spine, body []byte, batch bool) answered {
	rec := httptest.NewRecorder()
	if batch {
		var v BatchPredictRequest
		ok := sp.Decode(rec, post(body), codecLimit, &v)
		return answered{ok, rec.Code, rec.Body.String(), v}
	}
	var v PredictRequest
	ok := sp.Decode(rec, post(body), codecLimit, &v)
	return answered{ok, rec.Code, rec.Body.String(), v}
}

// viaCodec is what the daemons run: DecodePredict or DecodeBatch.
func viaCodec(sp *Spine, body []byte, batch bool) answered {
	rec := httptest.NewRecorder()
	if batch {
		var v BatchPredictRequest
		ok := sp.DecodeBatch(rec, post(body), codecLimit, &v)
		return answered{ok, rec.Code, rec.Body.String(), v}
	}
	var v PredictRequest
	ok := sp.DecodePredict(rec, post(body), codecLimit, &v)
	return answered{ok, rec.Code, rec.Body.String(), v}
}

// marshalled drops what a json.Marshal round trip cannot keep: an empty,
// non-nil Components, which omitempty leaves out.
func marshalled(req PredictRequest) PredictRequest {
	if len(req.Components) == 0 {
		req.Components = nil
	}
	return req
}

// FuzzPredictCodec holds the predict codec to its definition. For any
// body, in either shape, over the cap included, DecodePredict and
// DecodeBatch answer what Spine.Decode answers: the same acceptance, the
// same status and error body, a reflect.DeepEqual value. ReadPredict — the
// gateway's — answers it too within the cap and hands back the body
// unchanged, and answers 413 past it. And whatever the definition
// accepts, json.Marshal of the value is canonical: the lexer takes it
// whole, back to the same value, so no client that marshals its request
// is ever sent down the slow path.
func FuzzPredictCodec(f *testing.F) {
	for _, seed := range []struct {
		body  string
		batch bool
	}{
		{`{"title":"Packet loss on tor1.c1.dc1","body":"FCS errors","components":["tor1.c1.dc1"],"time":200}`, false},
		{`{"title":"a \u003c b \u0026\u0026 c \u003e d","body":"\u2028\u2029\ufffd","time":1.5}`, false},
		{`{"title":"\ud83d\ude00 \"q\" \\ \/ \b\f\n\r\t \u0001 \u00e9","time":2e-7}`, false},
		{`{"title":"lone \ud83d","time":1}`, false},
		{`{"Title":"case","time":1}`, false},
		{`{"title":"a","title":"b","time":1}`, false},
		{`{"title":"t","components":null,"time":1}`, false},
		{`{"title":"t","components":[],"time":1}`, false},
		{`{"title":null,"time":1}`, false},
		{`null`, false},
		{"{\"title\":\"\xff\xfe\",\"time\":1}", false},
		{`{"title":"t","time":1e400}`, false},
		{`{"title":"t","time":01}`, false},
		{`{"title":"t","time":-0}`, false},
		{`{"title":"t","time":1} trailing`, false},
		{`{"title":"t","time":1}{}`, false},
		{" {\"title\" : \"t\" ,\n\"time\":\t1 } \r\n", false},
		{`{"title":"t","time":1,"nope":true}`, false},
		{`{"title":"` + strings.Repeat("x", codecLimit) + `","time":1}`, false},
		{`{"title":"t","time":1}` + strings.Repeat(" ", codecLimit), false},
		{`{"items":[{"title":"a","time":1},{"body":"b","components":["c1","c2"],"time":2}]}`, true},
		{`{"items":[]}`, true},
		{`{"items":null}`, true},
		{`{"items":[{"title":"a","time":1}],"items":[]}`, true},
		{`{"Items":[{"title":"a","time":1}]}`, true},
		{`{"items":[{"title":"a","time":1},]}`, true},
		{`{"items":[null]}`, true},
		{`{}`, true},
		{`{"items":[{"title":"` + strings.Repeat("y", codecLimit) + `"}]}`, true},
	} {
		f.Add([]byte(seed.body), seed.batch)
	}
	sp, _ := testSpine()
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		want := viaStrict(sp, body, batch)
		if got := viaCodec(sp, body, batch); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q (batch %v): the codec answers %+v, Decode %+v", body, batch, got, want)
		}
		if !batch {
			rec := httptest.NewRecorder()
			var v PredictRequest
			raw, ok := sp.ReadPredict(rec, post(body), codecLimit, &v)
			got := answered{ok, rec.Code, rec.Body.String(), v}
			switch {
			case len(body) > codecLimit:
				if ok || rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("ReadPredict answered %d past the cap, want 413", rec.Code)
				}
			case !reflect.DeepEqual(got, want):
				t.Fatalf("%q: ReadPredict answers %+v, Decode %+v", body, got, want)
			case ok && !bytes.Equal(raw, body):
				t.Fatalf("ReadPredict returned %q for %q", raw, body)
			}
		}
		if !want.ok {
			return
		}
		// The decoded strings are copies: overwriting the bytes lexed
		// leaves the value as it was.
		scratch := bytes.Clone(body)
		var lexed any
		if batch {
			var v BatchPredictRequest
			if ParseBatch(scratch, &v) {
				lexed = v
			}
		} else {
			var v PredictRequest
			if ParsePredict(scratch, &v) {
				lexed = v
			}
		}
		if lexed != nil {
			for i := range scratch {
				scratch[i] = 'x'
			}
			if !reflect.DeepEqual(lexed, want.value) {
				t.Fatalf("%q: overwriting the body changed the lexed value to %+v, want %+v", body, lexed, want.value)
			}
		}
		if batch {
			v := want.value.(BatchPredictRequest)
			for i := range v.Items {
				v.Items[i] = marshalled(v.Items[i])
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var back BatchPredictRequest
			if !ParseBatch(b, &back) || !reflect.DeepEqual(back, v) {
				t.Fatalf("the lexer does not take json.Marshal's %s back to %+v: %+v", b, v, back)
			}
			return
		}
		v := marshalled(want.value.(PredictRequest))
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back PredictRequest
		if !ParsePredict(b, &back) || !reflect.DeepEqual(back, v) {
			t.Fatalf("the lexer does not take json.Marshal's %s back to %+v: %+v", b, v, back)
		}
	})
}

// TestParseTakesMarshalledRequests: json.Marshal's escaping of every kind
// of string — HTML characters, U+2028/9, control characters, runes of
// every width, invalid UTF-8, which it writes as \ufffd — and its numbers,
// from subnormals to 1e308, come back through the lexer whole and equal
// to what the strict decoder reads.
func TestParseTakesMarshalledRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pieces := []string{"<", ">", "&", "\"", "\\", "/", "\u2028", "\u2029", "\ufffd", "\x00", "\x1f", "\x7f",
		"\b\f\n\r\t", "\u00e9", "\u20ac", "\U0001f600", "\xff", "\xed\xa0\x80", "tor1.c1.dc1", " "}
	text := func() string {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(3) == 0 {
				b.WriteRune(rune(rng.Intn(0x10ffff)))
				continue
			}
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	times := []float64{1, 0.1, 200.25, 1e-6, 1e-7, 1e21, 1e20, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1), -3}
	sp, _ := testSpine()
	var batch BatchPredictRequest
	for i := 0; i < 2000; i++ {
		req := PredictRequest{Title: text(), Body: text(), Time: times[i%len(times)]}
		if i%3 == 0 {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				req.Time = f
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			req.Components = append(req.Components, text())
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got PredictRequest
		if !ParsePredict(body, &got) {
			t.Fatalf("the lexer does not take %s", body)
		}
		want := viaStrict(sp, body, false)
		if !want.ok || !reflect.DeepEqual(got, want.value) {
			t.Fatalf("%s lexes as %+v, Decode gives %+v", body, got, want.value)
		}
		if !utf8.ValidString(got.Title) || !utf8.ValidString(got.Body) {
			t.Fatalf("%s lexes to invalid UTF-8", body)
		}
		batch.Items = append(batch.Items, got)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchPredictRequest
	if !ParseBatch(body, &got) || !reflect.DeepEqual(got, batch) {
		t.Fatal("the lexer does not take the marshalled batch back to its items")
	}
	if cap(got.Items) != len(got.Items) {
		t.Fatalf("Items has capacity %d for %d items", cap(got.Items), len(got.Items))
	}
	for _, it := range got.Items {
		if cap(it.Components) != len(it.Components) {
			t.Fatalf("Components has capacity %d for %d names", cap(it.Components), len(it.Components))
		}
	}
}

// TestBodyPoolStaysBounded: one large batch body must not leave a buffer
// of its size in the body pool for every later request. The collector is
// off, so nothing the decoder put back is dropped before the pool is
// drained.
func TestBodyPoolStaysBounded(t *testing.T) {
	sp, _ := testSpine()
	item := `{"title":"` + strings.Repeat("x", 1024) + `","time":1}`
	body := []byte(`{"items":[` + strings.Repeat(item+",", 99) + item + `]}`)
	if len(body) <= MaxPooledBuffer {
		t.Fatalf("a %d-byte body does not outgrow the pool's cap", len(body))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var req BatchPredictRequest
	if !sp.DecodeBatch(httptest.NewRecorder(), post(body), 1<<20, &req) || len(req.Items) != 100 {
		t.Fatal("the large batch was refused")
	}
	for i := 0; i < 64; i++ {
		if c := cap(*bodyBufs.Get().(*[]byte)); c > MaxPooledBuffer {
			t.Fatalf("the body pool handed back a buffer of %d bytes, cap %d", c, MaxPooledBuffer)
		}
	}
}

// TestReadPredictBodyIsTheCallers: the gateway forwards the body
// ReadPredict returns to every attempt, hedges included, for as long as
// they run; no later request may reuse its bytes.
func TestReadPredictBodyIsTheCallers(t *testing.T) {
	sp, _ := testSpine()
	first := []byte(`{"title":"first","time":1}`)
	var req PredictRequest
	raw, ok := sp.ReadPredict(httptest.NewRecorder(), post(first), codecLimit, &req)
	if !ok {
		t.Fatal("ReadPredict refused a canonical body")
	}
	for i := 0; i < 100; i++ {
		other := []byte(`{"title":"other body, other bytes","time":2}`)
		sp.ReadPredict(httptest.NewRecorder(), post(other), codecLimit, new(PredictRequest))
		sp.DecodePredict(httptest.NewRecorder(), post(other), codecLimit, new(PredictRequest))
	}
	if !bytes.Equal(raw, first) {
		t.Fatalf("the forwarded body became %q", raw)
	}
}
