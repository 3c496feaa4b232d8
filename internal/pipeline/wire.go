package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
)

// MaxFrameBytes bounds one wire frame (1 MiB), in both framings: the
// byte length of a newline-delimited JSON line, and the declared
// payload length of a binary v2 frame. A frame larger than this is a
// protocol violation: the peer is either broken or hostile, and the
// connection is dropped rather than letting one agent balloon the
// aggregator's memory.
const MaxFrameBytes = 1 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameBytes —
// the single oversize error for both framings, counted under
// cpi2_wire_errors_total{reason="oversize"}.
var ErrFrameTooLarge = errors.New("pipeline: wire frame exceeds size limit")

// errEmptyFrame marks blank lines, which readers skip silently.
var errEmptyFrame = errors.New("pipeline: empty wire frame")

// errBadFrame is the sentinel wrapped by every malformed-frame error
// (JSON or binary), so read loops can classify decode failures apart
// from transport failures.
var errBadFrame = errors.New("pipeline: bad wire frame")

// decodeFrame parses one newline-delimited JSON wire frame. Malformed
// input of any kind returns an error — it must never panic, which is
// what FuzzWireDecode enforces. Unknown message types decode
// successfully and are ignored by the read loops (forward
// compatibility); per-sample validation stays with the spec builder,
// which already rejects and counts bad samples individually.
func decodeFrame(line []byte) (wireMsg, error) {
	if len(line) > MaxFrameBytes {
		return wireMsg{}, ErrFrameTooLarge
	}
	trim := bytes.TrimSpace(line)
	if len(trim) == 0 {
		return wireMsg{}, errEmptyFrame
	}
	var msg wireMsg
	if err := json.Unmarshal(trim, &msg); err != nil {
		return wireMsg{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return msg, nil
}

// frameReader reads a mixed-framing wire stream: each frame is either
// a newline-delimited JSON line or a binary v2 frame, told apart by
// the first byte (0xB2 never starts a JSON frame). Auto-detection is
// per frame, so the reader needs no negotiation state and tolerates a
// peer switching framings mid-connection (which negotiation causes:
// the hello exchange is JSON, everything after may be binary).
type frameReader struct {
	br *bufio.Reader
	// hdr, line and payload are the reusable frame buffers.
	hdr     [binHeaderLen]byte
	line    []byte
	payload []byte
	dec     decoder
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// next returns the next decoded message. Blank JSON lines are skipped.
// A binary samples message is valid until the following call: its
// Samples slice is the decoder's, reused frame after frame.
// On any error the stream must be abandoned: io.EOF means the peer
// closed cleanly between frames; everything else is classified by
// wireErrorReason for the drop accounting.
func (fr *frameReader) next() (wireMsg, error) {
	for {
		first, err := fr.br.Peek(1)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return wireMsg{}, io.EOF
			}
			return wireMsg{}, err
		}
		if first[0] == binMagic {
			return fr.readBinary()
		}
		line, err := fr.readLine()
		if err != nil {
			return wireMsg{}, err
		}
		msg, derr := decodeFrame(line)
		if errors.Is(derr, errEmptyFrame) {
			continue
		}
		return msg, derr
	}
}

// readLine reads one newline-terminated line (or the final unterminated
// line before EOF), enforcing MaxFrameBytes as it goes — the size check
// happens while reading, so an oversized line is reported as
// ErrFrameTooLarge instead of being silently truncated.
func (fr *frameReader) readLine() ([]byte, error) {
	fr.line = fr.line[:0]
	for {
		frag, err := fr.br.ReadSlice('\n')
		fr.line = append(fr.line, frag...)
		if len(fr.line) > MaxFrameBytes {
			return nil, ErrFrameTooLarge
		}
		switch {
		case err == nil:
			return fr.line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF) && len(fr.line) > 0:
			return fr.line, nil // final line without newline
		default:
			return nil, err
		}
	}
}

// readBinary reads one binary v2 frame (the peeked first byte is the
// magic). A declared payload length over MaxFrameBytes is rejected
// before any payload is read — the same oversize path as JSON lines.
func (fr *frameReader) readBinary() (wireMsg, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return wireMsg{}, truncated(err)
	}
	if hdr[0] != binMagic || hdr[1] != binVersion {
		return wireMsg{}, fmt.Errorf("%w: unknown binary frame version %d", errBadFrame, hdr[1])
	}
	n := int(uint32(hdr[2])<<24 | uint32(hdr[3])<<16 | uint32(hdr[4])<<8 | uint32(hdr[5]))
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
