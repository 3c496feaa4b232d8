package pipeline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// MaxFrameBytes bounds the declared payload length of one wire frame
// (1 MiB). A frame larger than this is a protocol violation: the peer
// is either broken or hostile, and the connection is dropped rather
// than letting one agent balloon the aggregator's memory.
const MaxFrameBytes = 1 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameBytes,
// counted under cpi2_wire_errors_total{reason="oversize"}.
var ErrFrameTooLarge = errors.New("pipeline: wire frame exceeds size limit")

// errBadFrame is the sentinel wrapped by every malformed-frame error
// and every refusal of a peer that is not wire v4, so read loops can
// classify decode failures apart from transport failures.
var errBadFrame = errors.New("pipeline: bad wire frame")

// frameReader reads a stream of binary v4 frames (wirebin.go).
type frameReader struct {
	br *bufio.Reader
	// hdr (the header after its magic byte) and payload are the
	// reusable frame buffers.
	hdr     [binHeaderLen - 1]byte
	payload []byte
	dec     decoder
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// next returns the next decoded message. A samples message is valid
// until the following call: its Samples slice is the decoder's, reused
// frame after frame.
// On any error the stream must be abandoned: io.EOF means the peer
// closed cleanly between frames; everything else is classified by
// wireErrorReason for the drop accounting. A first byte that is not
// the magic is judged alone, before the rest of a header is waited
// for: that is how a v1 peer's JSON line shows, whatever its length.
func (fr *frameReader) next() (wireMsg, error) {
	first, err := fr.br.ReadByte()
	if err != nil {
		return wireMsg{}, err
	}
	if first != binMagic {
		return wireMsg{}, fmt.Errorf("%w: first byte %#02x is not the wire v%d magic %#02x (a v1 JSON peer?)",
			errBadFrame, first, binVersion, binMagic)
	}
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return wireMsg{}, truncated(err)
	}
	if hdr[0] != binVersion {
		return wireMsg{}, fmt.Errorf("%w: frame of wire v%d, this end speaks only v%d", errBadFrame, hdr[0], binVersion)
	}
	// A declared payload length over MaxFrameBytes is refused before any
	// payload is read.
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFrameBytes {
		return wireMsg{}, ErrFrameTooLarge
	}
	if cap(fr.payload) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return wireMsg{}, truncated(err)
	}
	return fr.dec.decode(payload)
}

// truncated normalizes a short read inside a frame: io.EOF mid-frame
// means the peer died between header and payload, which is a transport
// error, not a clean close.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// wireErrorReason maps a fatal read-loop error to the reason label of
// cpi2_wire_errors_total. Callers filter clean closes (io.EOF and
// net.ErrClosed) before counting.
func wireErrorReason(err error) string {
	switch {
	case errors.Is(err, ErrFrameTooLarge):
		return "oversize"
	case errors.Is(err, errBadFrame):
		return "decode"
	default:
		return "read"
	}
}

// isCleanClose reports whether a read-loop exit cause is a normal
// connection teardown rather than a wire error worth accounting.
func isCleanClose(err error) bool {
	return err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}
