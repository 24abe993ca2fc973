package serve

import (
	"bufio"
	"errors"
	"fmt"
	"time"

	"scans/internal/arena"
	"scans/internal/binwire"
)

// The binary codec: serve's side of the internal/binwire protocol.
// This file maps between the wire-string vocabulary the shared dispatch
// (serveConn, ParseSpec, connStreams) speaks and binwire's compact
// frames. The mux half of the protocol is the connection's writer
// (connWriter, shared with the JSON codec): answers from any number of
// in-flight requests and stream workers are interleaved onto the socket
// in completion order.

// Enum byte mappings. Encoders map unknown strings to binwire.Invalid
// and decoders map unknown bytes to strings no Parse accepts, so a bad
// spec from a binary client is rejected SERVER-side with the same
// bad_request code a JSON client's would be — validation lives in one
// place (ParseSpec), not per codec.

func binOpByte(op string) byte {
	switch op {
	case "sum":
		return 0
	case "max":
		return 1
	case "min":
		return 2
	case "mul":
		return 3
	}
	return binwire.Invalid
}

func binOpString(b byte) string {
	switch b {
	case 0:
		return "sum"
	case 1:
		return "max"
	case 2:
		return "min"
	case 3:
		return "mul"
	}
	return fmt.Sprintf("bin:0x%02x", b)
}

// binOpWire is binOpString plus the user-op namespace: an OpUser byte
// decodes to the "user:<name>" wire string, so an empty or unregistered
// name is rejected by ParseSpec/resolveUserOp with bad_request — never
// bad_frame — keeping the two codecs' rejection vocabulary identical.
func binOpWire(q binwire.Request) string {
	if q.Op == binwire.OpUser {
		return "user:" + q.Name
	}
	return binOpString(q.Op)
}

func binKindByte(kind string) byte {
	switch kind {
	case "", "exclusive":
		return 0
	case "inclusive":
		return 1
	}
	return binwire.Invalid
}

func binKindString(b byte) string {
	switch b {
	case 0:
		return "exclusive"
	case 1:
		return "inclusive"
	}
	return fmt.Sprintf("bin:0x%02x", b)
}

func binDirByte(dir string) byte {
	switch dir {
	case "", "forward":
		return 0
	case "backward":
		return 1
	}
	return binwire.Invalid
}

func binDirString(b byte) string {
	switch b {
	case 0:
		return "forward"
	case 1:
		return "backward"
	}
	return fmt.Sprintf("bin:0x%02x", b)
}

func binElemByte(elem string) byte {
	switch elem {
	case "", ElemInt64:
		return binwire.ElemInt64
	case ElemFloat64:
		return binwire.ElemFloat64
	}
	return binwire.Invalid
}

func binElemString(b byte) string {
	switch b {
	case binwire.ElemInt64:
		return ElemInt64
	case binwire.ElemFloat64:
		return ElemFloat64
	}
	return fmt.Sprintf("bin:0x%02x", b)
}

func binProtoByte(proto string) byte {
	switch proto {
	case "", ProtoJSON:
		return 0
	case ProtoBin:
		return 1
	}
	return binwire.Invalid
}

func binProtoString(b byte) string {
	switch b {
	case 0:
		return ProtoJSON
	case 1:
		return ProtoBin
	}
	return fmt.Sprintf("bin:0x%02x", b)
}

// wireFromBin lifts a decoded binary request into the WireRequest form
// the shared dispatch consumes. Ownership of the arena-backed Data
// moves with it.
func wireFromBin(q binwire.Request) WireRequest {
	req := WireRequest{
		ID:        q.ID,
		Stream:    q.Stream,
		TimeoutMS: q.TimeoutMS,
		Tenant:    q.Tenant,
		Data:      q.Data,
		FData:     q.FData,
	}
	switch q.Type {
	case binwire.FScan:
		req.Type = ""
	case binwire.FStreamOpen:
		req.Type = "stream_open"
	case binwire.FStreamChunk:
		req.Type = "stream_chunk"
	case binwire.FStreamClose:
		req.Type = "stream_close"
	case binwire.FStreamResume:
		req.Type = "stream_resume"
		req.Resume = q.Token
		req.Seq = q.Acked
	case binwire.FHeartbeat:
		req.Type = "heartbeat"
		req.Addr = q.Addr
		req.Weight = q.Weight
		req.WProto = binProtoString(q.WProto)
		req.MaxLine = q.MaxLine
	case binwire.FRegisterOp:
		req.Type = "register_op"
		req.Name = q.Name
		req.Source = q.Source
	}
	if q.Type == binwire.FScan || q.Type == binwire.FStreamOpen {
		req.Op = binOpWire(q)
		req.OpHash = q.OpHash
		req.Kind = binKindString(q.Kind)
		req.Dir = binDirString(q.Dir)
		req.Elem = binElemString(q.Elem)
	}
	return req
}

// binConn is the binary codec for one server connection.
type binConn struct {
	*connWriter
	ns *NetServer
	r  *bufio.Reader
}

// Binary results are 8 bytes per element plus a fixed header — exact,
// not a digit worst case. A response can therefore never outgrow a
// budget its request fit inside, so unlike the JSON codec the
// too_large response gate effectively never fires for binary one-shots.
func (b *binConn) worstResp(n int) int      { return binwire.ResultFrameBytes(n) }
func (b *binConn) worstRespFloat(n int) int { return binwire.ResultFrameBytes(n) }

// encodeFrame renders one response as a binwire frame in an arena
// buffer.
func encodeFrame(resp WireResponse) []byte {
	var frame []byte
	switch {
	case resp.Error != "" || resp.Code != "":
		frame = arena.GetBytes(binwire.ErrorFrameBytes(resp.Code, resp.Error))[:0]
		frame = binwire.AppendError(frame, resp.ID, resp.Code, resp.Error)
	case resp.Window != 0:
		// Stream open/resume ack: both always carry the window.
		var seq uint64
		if resp.Seq != nil {
			seq = *resp.Seq
		}
		frame = arena.GetBytes(binwire.AckFrameBytes(resp.Resume))[:0]
		frame = binwire.AppendAck(frame, resp.ID, seq, resp.Window, resp.Resume)
	case resp.OpHash != 0:
		frame = arena.GetBytes(binwire.OpAckFrameBytes())[:0]
		frame = binwire.AppendOpAck(frame, resp.ID, resp.OpHash)
	case resp.Total != nil:
		frame = arena.GetBytes(binwire.TotalFrameBytes())[:0]
		frame = binwire.AppendTotal(frame, resp.ID, *resp.Total)
	case resp.FResult != nil:
		frame = arena.GetBytes(binwire.ResultFrameBytes(len(resp.FResult)))[:0]
		frame = binwire.AppendFloatResult(frame, resp.ID, resp.FResult)
	default:
		frame = arena.GetBytes(binwire.ResultFrameBytes(len(resp.Result)))[:0]
		frame = binwire.AppendResult(frame, resp.ID, resp.Result)
	}
	return frame
}

// readRequest reads and decodes the next frame. Payload-level damage
// inside an intact frame is answered bad_frame and skipped (framing is
// still in sync — the analogue of bad_json); length-level damage or an
// over-budget frame is answered (id recovered when possible) and kills
// the connection, because a binary stream cannot resynchronize.
func (b *binConn) readRequest() (WireRequest, error) {
	for {
		if b.ns.ncfg.IdleTimeout > 0 {
			b.conn.SetReadDeadline(time.Now().Add(b.ns.ncfg.IdleTimeout))
		}
		payload, err := binwire.ReadFrame(b.r, b.ns.ncfg.MaxLineBytes)
		if err != nil {
			switch {
			case errors.Is(err, binwire.ErrFrameTooBig):
				b.respond(WireResponse{
					ID:    binwire.RequestID(payload),
					Error: fmt.Sprintf("request frame exceeds %d bytes", b.ns.ncfg.MaxLineBytes),
					Code:  CodeTooLarge,
				})
			case errors.Is(err, binwire.ErrBadFrame):
				b.respond(WireResponse{Error: err.Error(), Code: CodeBadFrame})
			}
			return WireRequest{}, err
		}
		id := binwire.RequestID(payload)
		breq, perr := binwire.ParseRequest(payload)
		arena.PutBytes(payload)
		if perr != nil {
			b.respond(WireResponse{ID: id, Error: perr.Error(), Code: CodeBadFrame})
			continue
		}
		return wireFromBin(breq), nil
	}
}
