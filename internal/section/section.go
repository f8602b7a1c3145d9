// Package section is the tagged-section list both binary model layers are
// made of: a forest payload (forest.AppendBinary) is one, and a scoutpack
// (core.SnapshotPack) is one behind its versioned, checksummed header.
//
// A list is sections back to back, all little-endian, with no count, no
// padding and no reserved bytes:
//
//	tag[4] | u32 length | payload
//
// A format declares its sections as a Spec list. Read walks the whole
// input, and the input must hold exactly those sections in that order:
// an optional one may be absent, nothing may repeat, and nothing may
// follow the last. Every length is checked against the bytes that remain
// before the payload is sliced, so a claimed length never sizes an
// allocation or a read past the end.
package section

import (
	"encoding/binary"
	"fmt"
	"math"
)

// HeaderLen is a section's length before its payload: tag[4] | u32 length.
const HeaderLen = 8

// Spec is one section of a format, in the format's fixed order.
type Spec struct {
	Tag      string
	Optional bool
}

// Append appends one section to buf and returns the extended slice.
func Append(buf []byte, tag string, payload []byte) []byte {
	return append(AppendHeader(buf, tag, len(payload)), payload...)
}

// AppendHeader appends the header of a section whose n payload bytes the
// caller appends next: a writer that sizes its buffer once writes each
// payload in place. The tag must be four bytes and the payload under
// 4 GiB; the writers' tags are constants and their payloads model-sized,
// so either failing is a bug, and AppendHeader panics.
func AppendHeader(buf []byte, tag string, n int) []byte {
	if len(tag) != 4 || n < 0 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("section: cannot append %q with %d payload bytes", tag, n))
	}
	buf = append(buf, tag...)
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// Read splits data into the sections layout names and returns their
// payloads keyed by tag; an absent optional section has no key. The
// payloads alias data.
func Read(data []byte, layout []Spec) (map[string][]byte, error) {
	secs := make(map[string][]byte, len(layout))
	next := 0 // the first layout entry the next section may be
	for off := 0; off < len(data); {
		if len(data)-off < HeaderLen {
			return nil, fmt.Errorf("section header truncated: %d bytes at offset %d", len(data)-off, off)
		}
		tag := string(data[off : off+4])
		i := next
		for i < len(layout) && layout[i].Tag != tag {
			i++
		}
		if i == len(layout) {
			return nil, fmt.Errorf("section %q unknown, repeated or out of order", tag)
		}
		if err := checkSkipped(layout[next:i]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(data[off+4:])
		off += HeaderLen
		if uint64(n) > uint64(len(data)-off) {
			return nil, fmt.Errorf("section %q claims %d bytes, only %d remain", tag, n, len(data)-off)
		}
		secs[tag] = data[off : off+int(n)]
		off += int(n)
		next = i + 1
	}
	if err := checkSkipped(layout[next:]); err != nil {
		return nil, err
	}
	return secs, nil
}

// checkSkipped errors on the first required section among those a
// reader passed over.
func checkSkipped(skipped []Spec) error {
	for _, s := range skipped {
		if !s.Optional {
			return fmt.Errorf("section %q missing", s.Tag)
		}
	}
	return nil
}
