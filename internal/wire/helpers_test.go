package wire

import (
	"fmt"
	"io"
)

// Allocating convenience wrappers over the codec, for tests. Production
// code decodes messages with DecodeMessage and writes frames it encoded
// straight into a pooled FrameBuffer.

// DecodeValue decodes a single value from buf, requiring that buf contain
// exactly one value.
func DecodeValue(buf []byte) (Value, error) {
	d := NewDecoder(buf)
	v, err := d.Value()
	if err != nil {
		return Nil(), err
	}
	if d.Remaining() != 0 {
		return Nil(), fmt.Errorf("wire: %d trailing bytes after value", d.Remaining())
	}
	return v, nil
}

// WriteFrame writes a length-prefixed frame containing payload to w. The
// header and payload go out in a single Write, so a frame is one syscall
// and cannot be torn in half by a mid-frame write deadline. Callers on hot
// paths avoid the payload copy by encoding straight into a FrameBuffer and
// calling its WriteFrame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fb := GetFrameBuffer()
	fb.B = append(fb.B, payload...)
	err := fb.WriteFrame(w)
	PutFrameBuffer(fb)
	return err
}
