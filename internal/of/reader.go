package of

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// MessageReader reads a stream of OpenFlow messages with a buffered,
// reusable frame buffer: one read buffer lives for the life of the reader
// instead of one allocation per frame, and the hot message types are
// decoded into pooled structs (see AcquireMessage/Release). Decoded
// messages copy all variable-length fields out of the frame buffer, so
// each ReadMessage invalidates nothing returned earlier.
//
// MessageReader is not safe for concurrent use; a connection's framing
// loop owns it exclusively.
type MessageReader struct {
	r   *bufio.Reader
	buf []byte
}

// readerBufSize is the bufio buffer: large enough to absorb a coalesced
// flush from the peer in one syscall.
const readerBufSize = 64 << 10

// NewMessageReader wraps r with OpenFlow framing.
func NewMessageReader(r io.Reader) *MessageReader {
	return &MessageReader{
		r:   bufio.NewReaderSize(r, readerBufSize),
		buf: make([]byte, 2048),
	}
}

// ReadMessage reads and decodes exactly one message. Hot message types are
// served from the package pools: a consumer that owns a returned message
// outright may hand it back with Release.
func (mr *MessageReader) ReadMessage() (Message, error) {
	if _, err := io.ReadFull(mr.r, mr.buf[:HeaderLen]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(mr.buf[2:4]))
	if length < HeaderLen {
		return nil, fmt.Errorf("of: header declares length %d < %d", length, HeaderLen)
	}
	if length > len(mr.buf) {
		nb := make([]byte, length+length/2)
		copy(nb, mr.buf[:HeaderLen])
		mr.buf = nb
	}
	if _, err := io.ReadFull(mr.r, mr.buf[HeaderLen:length]); err != nil {
		return nil, err
	}
	return unmarshal(mr.buf[:length], true)
}

// FrameBuffered reports whether the next ReadMessage can be served
// entirely from bytes already read from the stream, i.e. without touching
// the underlying reader. A connection's framing loop uses it to find the
// end of a read burst: the messages one read delivered are exhausted when
// it turns false. The read buffer holds any legal frame (the length field
// is 16 bits), so a whole buffered frame is always visible here.
func (mr *MessageReader) FrameBuffered() bool {
	n := mr.r.Buffered()
	if n < HeaderLen {
		return false
	}
	hdr, err := mr.r.Peek(4)
	return err == nil && n >= int(binary.BigEndian.Uint16(hdr[2:4]))
}
