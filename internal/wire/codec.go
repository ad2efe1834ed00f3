package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary encoding of Values.
//
// Each value is a one-byte tag followed by a payload:
//
//	0x00 nil
//	0x01 false
//	0x02 true
//	0x03 number     8-byte big-endian IEEE-754
//	0x04 string     uvarint length + bytes
//	0x05 bytes      uvarint length + bytes
//	0x06 table      uvarint arrayLen + values, uvarint hashLen + key/value pairs
//	0x07 objref     string endpoint + string key
//
// The format is self-delimiting; frames add an outer length prefix so a
// reader can reject oversized messages before decoding.

const (
	tagNil    = 0x00
	tagFalse  = 0x01
	tagTrue   = 0x02
	tagNumber = 0x03
	tagString = 0x04
	tagBytes  = 0x05
	tagTable  = 0x06
	tagObjRef = 0x07
)

// Encoding limits. These bound resource use when decoding untrusted input.
const (
	// MaxFrameSize is the largest frame a peer may send (16 MiB).
	MaxFrameSize = 16 << 20
	// maxDepth bounds table nesting during encode and decode.
	maxDepth = 64
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrTooDeep       = errors.New("wire: value nesting exceeds depth limit")
	ErrTruncated     = errors.New("wire: truncated input")
)

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	return appendValue(dst, v, 0)
}

func appendValue(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return dst, ErrTooDeep
	}
	switch v.kind {
	case KindNil:
		return append(dst, tagNil), nil
	case KindBool:
		if v.b {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case KindNumber:
		dst = append(dst, tagNumber)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.n)), nil
	case KindString:
		dst = append(dst, tagString)
		return appendString(dst, v.s), nil
	case KindBytes:
		dst = append(dst, tagBytes)
		return appendString(dst, v.s), nil
	case KindObjRef:
		dst = append(dst, tagObjRef)
		dst = appendString(dst, v.r.Endpoint)
		return appendString(dst, v.r.Key), nil
	case KindTable:
		dst = append(dst, tagTable)
		dst = binary.AppendUvarint(dst, uint64(len(v.t.arr)))
		var err error
		for _, e := range v.t.arr {
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return dst, err
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.t.hash)))
		// Deterministic order: encode pairs sorted by key, matching Pairs.
		var encodeErr error
		v.t.hashPairs(func(k, val Value) bool {
			if dst, encodeErr = appendValue(dst, k, depth+1); encodeErr != nil {
				return false
			}
			dst, encodeErr = appendValue(dst, val, depth+1)
			return encodeErr == nil
		})
		return dst, encodeErr
	default:
		return dst, fmt.Errorf("wire: cannot encode kind %v", v.kind)
	}
}

// hashPairs iterates only the hash part in sorted order.
func (t *Table) hashPairs(fn func(k, v Value) bool) {
	t.Pairs(func(k, v Value) bool {
		if n, ok := k.AsNumber(); ok && n == math.Trunc(n) {
			i := int(n)
			if i >= 1 && i <= len(t.arr) {
				return true // array part, skip
			}
		}
		return fn(k, v)
	})
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decoder reads values from a byte slice.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf;
// decoded strings share its memory via Go string conversion (copied).
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Value decodes the next value.
func (d *Decoder) Value() (Value, error) {
	return d.value(0)
}

func (d *Decoder) value(depth int) (Value, error) {
	if depth > maxDepth {
		return Nil(), ErrTooDeep
	}
	if d.pos >= len(d.buf) {
		return Nil(), ErrTruncated
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case tagNil:
		return Nil(), nil
	case tagFalse:
		return Bool(false), nil
	case tagTrue:
		return Bool(true), nil
	case tagNumber:
		if d.Remaining() < 8 {
			return Nil(), ErrTruncated
		}
		bits := binary.BigEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
		return Number(math.Float64frombits(bits)), nil
	case tagString:
		s, err := d.str()
		if err != nil {
			return Nil(), err
		}
		return String(s), nil
	case tagBytes:
		s, err := d.str()
		if err != nil {
			return Nil(), err
		}
		return Value{kind: KindBytes, s: s}, nil
	case tagObjRef:
		ep, err := d.str()
		if err != nil {
			return Nil(), err
		}
		key, err := d.str()
		if err != nil {
			return Nil(), err
		}
		return Ref(ObjRef{Endpoint: ep, Key: key}), nil
	case tagTable:
		arrLen, err := d.uvarint()
		if err != nil {
			return Nil(), err
		}
		if arrLen > uint64(d.Remaining()) {
			return Nil(), ErrTruncated
		}
		t := &Table{arr: make([]Value, 0, arrLen)}
		for i := uint64(0); i < arrLen; i++ {
			e, err := d.value(depth + 1)
			if err != nil {
				return Nil(), err
			}
			t.arr = append(t.arr, e)
		}
		hashLen, err := d.uvarint()
		if err != nil {
			return Nil(), err
		}
		if hashLen > uint64(d.Remaining()) {
			return Nil(), ErrTruncated
		}
		for i := uint64(0); i < hashLen; i++ {
			k, err := d.value(depth + 1)
			if err != nil {
				return Nil(), err
			}
			v, err := d.value(depth + 1)
			if err != nil {
				return Nil(), err
			}
			if err := t.Set(k, v); err != nil {
				return Nil(), fmt.Errorf("wire: decode table: %w", err)
			}
		}
		return TableVal(t), nil
	default:
		return Nil(), fmt.Errorf("wire: unknown value tag 0x%02x", tag)
	}
}

func (d *Decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.Remaining()) {
		return "", ErrTruncated
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.pos += n
	return v, nil
}
