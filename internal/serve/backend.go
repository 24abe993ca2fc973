package serve

import "context"

// Backend is what the TCP front end (NetServer) fronts: anything that
// can run one scan to completion and host streaming sessions. Two
// implementations exist — *Server, the in-process batching engine, and
// cluster.Coordinator, which shards each scan across remote scansd
// workers — so the whole wire layer (framing, error codes, line
// budgets, float64 mapping, stream session tables) is written once and
// serves both single-node and cluster deployments.
type Backend interface {
	// Scan runs one scan over data and returns the full result vector.
	// Errors wrap this package's typed sentinels (ErrOverloaded,
	// ErrBadRequest, ErrShardFailed, ...) so the wire layer can code
	// them.
	Scan(ctx context.Context, spec Spec, data []int64, tenant string) ([]int64, error)
	// OpenScanStream starts a streaming session for spec (forward specs
	// only; backward opens fail with ErrStreamUnsupported).
	OpenScanStream(spec Spec, tenant string) (ScanStream, error)
	// Close drains the backend; in-flight work resolves, new work is
	// refused with ErrClosed.
	Close()
}

// ScanStream is one streaming scan session as the wire session table
// (netstream.go) drives it: Push chunks in order, then exactly one of
// Close (clean, returns the total), Abort (connection teardown), or
// Expire (idle TTL).
type ScanStream interface {
	Push(ctx context.Context, chunk []int64) ([]int64, error)
	Close() (int64, error)
	Abort(cause error)
	Expire()
}

// Announcer is the optional backend extension behind the "heartbeat"
// wire message: a backend that maintains a dynamic worker fleet (the
// cluster coordinator). addr is the worker's dialable address, weight
// its relative capacity, proto the wire protocol to dial it with
// ("json"/"bin", "" = the backend's default), maxLine its line budget
// (0 = default). A backend that does not implement Announcer answers
// heartbeats with bad_request.
type Announcer interface {
	Announce(addr string, weight float64, proto string, maxLine int) error
}

// OpRegistrar is the optional backend extension behind the
// "register_op" wire message: a backend that hosts a tenant-scoped
// user combine-op registry (internal/combine). RegisterScanOp
// validates source as a monoid and installs it under (tenant, name),
// returning the registration's content hash; rejections wrap ErrBadOp.
// Both *Server and the cluster coordinator implement it (the
// coordinator also propagates accepted registrations to its workers).
// A backend that does not implement OpRegistrar answers register_op
// with bad_request.
type OpRegistrar interface {
	RegisterScanOp(tenant, name, source string) (hash uint64, err error)
}

// StreamResumer is the optional backend extension behind the
// "stream_resume" wire message: a backend whose stream sessions survive
// their carrying connection (the cluster coordinator, whose session
// records also replicate to a standby). lastAcked is the count of chunk
// responses the client has received; the backend rolls the session back
// to that point and returns the re-attached stream plus resumeFrom, the
// 1-based index of the next chunk it expects (≤ lastAcked+1 — strictly
// smaller when the backend is a standby whose replica lagged the
// primary's acks, in which case the client must rewind and resend).
type StreamResumer interface {
	ResumeScanStream(token string, lastAcked uint64) (st ScanStream, resumeFrom uint64, err error)
}

// TokenStream is the optional ScanStream extension marking a session as
// resumable: the wire layer puts the token in the stream-open ack so the
// client can re-attach via StreamResumer after a failure. Plain *Server
// streams are not resumable (their carry dies with the server).
type TokenStream interface {
	ResumeToken() string
}

// OpenScanStream adapts OpenStream to the Backend interface. The
// indirection (rather than returning *Stream directly) keeps a nil
// *Stream from becoming a non-nil ScanStream interface on the error
// path.
func (s *Server) OpenScanStream(spec Spec, tenant string) (ScanStream, error) {
	st, err := s.OpenStream(spec, tenant)
	if err != nil {
		return nil, err
	}
	return st, nil
}
