package section

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

var layout = []Spec{{Tag: "HEAD"}, {Tag: "OPT1", Optional: true}, {Tag: "BODY"}, {Tag: "TAIL", Optional: true}}

func list(secs ...[2]string) []byte {
	var b []byte
	for _, s := range secs {
		b = Append(b, s[0], []byte(s[1]))
	}
	return b
}

func TestAppendLayout(t *testing.T) {
	got := Append([]byte("x"), "HEAD", []byte("abc"))
	want := []byte("xHEAD\x03\x00\x00\x00abc")
	if !bytes.Equal(got, want) {
		t.Fatalf("Append = %q, want %q", got, want)
	}
}

func TestReadAccepts(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		want map[string]string
	}{
		{"required only", list([2]string{"HEAD", "h"}, [2]string{"BODY", ""}), map[string]string{"HEAD": "h", "BODY": ""}},
		{"every section", list([2]string{"HEAD", "h"}, [2]string{"OPT1", "o"}, [2]string{"BODY", "b"}, [2]string{"TAIL", "t"}),
			map[string]string{"HEAD": "h", "OPT1": "o", "BODY": "b", "TAIL": "t"}},
		{"last optional only", list([2]string{"HEAD", ""}, [2]string{"BODY", "bb"}, [2]string{"TAIL", "t"}),
			map[string]string{"HEAD": "", "BODY": "bb", "TAIL": "t"}},
	} {
		secs, err := Read(slices.Clip(tc.data), layout)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(secs) != len(tc.want) {
			t.Fatalf("%s: %d sections, want %d", tc.name, len(secs), len(tc.want))
		}
		for tag, payload := range tc.want {
			if got, ok := secs[tag]; !ok || string(got) != payload {
				t.Fatalf("%s: %s = %q (present %v), want %q", tc.name, tag, got, ok, payload)
			}
		}
	}
}

func TestReadRefuses(t *testing.T) {
	full := list([2]string{"HEAD", "h"}, [2]string{"BODY", "body"})
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, `section "HEAD" missing`},
		{"required section absent", list([2]string{"HEAD", "h"}), `section "BODY" missing`},
		{"required section skipped", list([2]string{"BODY", "b"}), `section "HEAD" missing`},
		{"out of order", list([2]string{"HEAD", ""}, [2]string{"BODY", ""}, [2]string{"OPT1", ""}), `section "OPT1" unknown, repeated or out of order`},
		{"repeated", list([2]string{"HEAD", ""}, [2]string{"HEAD", ""}, [2]string{"BODY", ""}), `section "HEAD" unknown, repeated or out of order`},
		{"unknown tag", list([2]string{"HEAD", ""}, [2]string{"XXXX", ""}), `section "XXXX" unknown, repeated or out of order`},
		{"header cut", full[:len(full)-len("body")-1], "section header truncated: 7 bytes at offset 9"},
		{"payload cut", full[:len(full)-1], `section "BODY" claims 4 bytes, only 3 remain`},
		{"length past the end", append(list([2]string{"HEAD", ""}), "BODY\xff\xff\xff\xff"...), `section "BODY" claims 4294967295 bytes, only 0 remain`},
		{"trailing bytes", append(bytes.Clone(full), 0), "section header truncated: 1 bytes at offset 21"},
	} {
		_, err := Read(slices.Clip(tc.data), layout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Read = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
