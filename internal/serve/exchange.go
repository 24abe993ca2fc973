package serve

// Worker-side exchange data plane (DESIGN.md §10): instead of the
// coordinator pre-scanning every piece's carry serially (the star
// plane's O(n) funnel), each worker folds its own raw piece and the
// pieces run a distributed EXCLUSIVE scan over the block sums among
// themselves — the paper's Fig 10 block-sum stitch, decentralized the
// way Träff's MPI_Exscan constructions decentralize it.
//
// Participants are PIECES, not workers (one worker usually hosts
// several ranks; messages between co-hosted ranks short-circuit through
// the local mailbox). Rank order is scan order: piece index for forward
// scans, reversed for backward. Each rank r contributes a pair
//
//	c_r = (value, reset)
//
// where value is the piece's fold (identity for a backward piece that
// opens at a segment head) and reset marks a segment head, combined
// with the associative operator
//
//	(v1,r1) ⊗ (v2,r2) = (r2 ? v2 : v1·v2, r1 ∨ r2)
//
// — a head to the right wipes everything left of it, exactly like the
// coordinator's serial seed chain. The ranks compute the exclusive
// prefix C_r = c_0 ⊗ … ⊗ c_{r-1} with the standard hypercube scan:
// ceil(log2 k) rounds; in round j, rank r swaps its running subcube
// total T with partner r XOR 2^j and folds the partner's T into C when
// the partner is below it. Ranks whose partner id is ≥ k skip the
// round (the virtual partner holds the identity). The piece's seed is
// then C.value, seeded with the request's Init when no head intervened,
// and the piece applies it by scanning [seed, data...] (mirrored for
// backward) through its own backend and dropping the phantom element —
// the very same pre-seeded-payload trick the star plane uses, so the
// results are bit-identical.
//
// The star chain folds new values on the LEFT for backward scans while
// ⊗ always folds on the RIGHT; the two agree because every BUILTIN op
// (+, ×, max, min over wrapping int64) is commutative. User combine ops
// (internal/combine) are only required to be associative, so the
// exchange plane accepts them FORWARD only — the coordinator routes
// backward user scans straight to the star plane, and a worker handed
// one anyway answers bad_request. Forward user pieces fold their block
// sums and ⊗ with the op's VM program, resolved (and hash-verified)
// against this worker's own registry: a coordinator pins the content
// hash on every piece, so a worker holding a stale or missing
// registration answers the typed op_hash/bad_request and the
// coordinator re-pushes and retries (then falls back to star).
//
// Any peer failure — a round timeout, a dead peer, a canceled sibling —
// surfaces as the typed ErrXchgFailed, and the coordinator re-runs the
// whole request on the star plane.

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"scans/internal/arena"
	"scans/internal/combine"
)

// xchgKey addresses one mailbox slot: the carry message rank `rank`
// expects in round `round` of exchange `group`.
type xchgKey struct {
	group uint64
	rank  uint32
	round uint32
}

// xchgMsg is one (value, reset) pair in flight.
type xchgMsg struct {
	val   int64
	reset bool
}

// xchgSlot is a 1-buffered rendezvous: whichever side arrives first —
// the depositing peer or the awaiting participant — creates it.
type xchgSlot struct {
	ch   chan xchgMsg
	born time.Time
}

// Sweep cadence for orphaned slots (a participant died or timed out
// before consuming a deposit). Orphans are 16 bytes each, so the sweep
// only has to keep the map bounded, not race the exchange.
const (
	xchgSweepEvery = 10 * time.Second
	xchgSweepAge   = 60 * time.Second
)

// exchangeTable is a NetServer's carry-message mailbox.
type exchangeTable struct {
	mu        sync.Mutex
	slots     map[xchgKey]*xchgSlot
	lastSweep time.Time
}

func newExchangeTable() *exchangeTable {
	return &exchangeTable{slots: make(map[xchgKey]*xchgSlot), lastSweep: time.Now()}
}

// slot returns k's rendezvous, creating it if absent (t.mu held by
// caller via lockedSlot).
func (t *exchangeTable) lockedSlot(k xchgKey) *xchgSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now := time.Now(); now.Sub(t.lastSweep) > xchgSweepEvery {
		t.lastSweep = now
		for key, s := range t.slots {
			if now.Sub(s.born) > xchgSweepAge {
				delete(t.slots, key)
			}
		}
	}
	s := t.slots[k]
	if s == nil {
		s = &xchgSlot{ch: make(chan xchgMsg, 1), born: time.Now()}
		t.slots[k] = s
	}
	return s
}

// deposit delivers one carry message; never blocks. A duplicate for an
// already-full slot is dropped (the exchange protocol sends each
// message once; a duplicate is a stale group's leftover).
func (t *exchangeTable) deposit(k xchgKey, m xchgMsg) {
	s := t.lockedSlot(k)
	select {
	case s.ch <- m:
	default:
	}
}

// await blocks for k's message until timeout or ctx expiry. The slot is
// removed either way: on success it has served its purpose, on failure
// the group is doomed and a late deposit will be swept.
func (t *exchangeTable) await(ctx context.Context, k xchgKey, timeout time.Duration) (xchgMsg, error) {
	s := t.lockedSlot(k)
	remove := func() {
		t.mu.Lock()
		if t.slots[k] == s {
			delete(t.slots, k)
		}
		t.mu.Unlock()
	}
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case m := <-s.ch:
		remove()
		return m, nil
	case <-ctx.Done():
		remove()
		return xchgMsg{}, ctx.Err()
	case <-tm.C:
		remove()
		return xchgMsg{}, fmt.Errorf("no carry after %v", timeout)
	}
}

// peerPool caches one multiplexed Client per peer worker address.
// Dialed binary; a failed send drops the entry so the next round
// redials fresh.
type peerPool struct {
	maxLine int

	mu     sync.Mutex
	clis   map[string]*Client
	closed bool
}

func newPeerPool(maxLine int) *peerPool {
	return &peerPool{maxLine: maxLine, clis: make(map[string]*Client)}
}

// get returns the pooled client for addr, dialing one if needed. The
// dial runs off-lock and is bounded by ctx, so a black-holed peer
// cannot stall every other exchange on this server.
func (p *peerPool) get(ctx context.Context, addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if cli := p.clis[addr]; cli != nil {
		p.mu.Unlock()
		return cli, nil
	}
	p.mu.Unlock()

	type dialRes struct {
		cli *Client
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		cli, err := DialMaxLineProto(addr, p.maxLine, ProtoBin)
		ch <- dialRes{cli, err}
	}()
	var r dialRes
	select {
	case r = <-ch:
	case <-ctx.Done():
		go func() { // reap the straggling dial
			if r := <-ch; r.cli != nil {
				r.cli.Close()
			}
		}()
		return nil, ctx.Err()
	}
	if r.err != nil {
		return nil, r.err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		r.cli.Close()
		return nil, ErrClosed
	}
	if prev := p.clis[addr]; prev != nil {
		p.mu.Unlock()
		r.cli.Close() // lost a dial race; use the winner
		return prev, nil
	}
	p.clis[addr] = r.cli
	p.mu.Unlock()
	return r.cli, nil
}

// drop evicts addr's entry if it is still cli, and closes cli.
func (p *peerPool) drop(addr string, cli *Client) {
	p.mu.Lock()
	if p.clis[addr] == cli {
		delete(p.clis, addr)
	}
	p.mu.Unlock()
	cli.Close()
}

// close tears down every pooled connection; later gets fail typed.
func (p *peerPool) close() {
	p.mu.Lock()
	clis := p.clis
	p.clis = make(map[string]*Client)
	p.closed = true
	p.mu.Unlock()
	for _, cli := range clis {
		cli.Close()
	}
}

// xpair is the exchange's (value, reset) element.
type xpair struct {
	v int64
	r bool
}

// xcombSpec is the segmented-pair operator ⊗ (see the package comment):
// associative, and exactly the fold the coordinator's serial seed chain
// performs. For user ops the value half runs the op's VM program, which
// can fail (budget blowout on pathological carries).
func xcombSpec(spec Spec, fr *combine.Frame, a, b xpair) (xpair, error) {
	if b.r {
		return xpair{b.v, true}, nil
	}
	v, err := CombineSpec(spec, fr, a.v, b.v)
	if err != nil {
		return xpair{}, err
	}
	return xpair{v, a.r}, nil
}

// XchgPiece describes one piece's role in a carry exchange, for
// Client.ScanXchg: the group id, the piece's rank, every rank's worker
// address, whether the piece opens at a segment head, whether the
// exchanged carry applies to it, and rank 0's initial carry.
type XchgPiece struct {
	Group  uint64
	Rank   int
	Peers  []string
	Head   bool
	Seeded bool
	Init   int64
	// OpHash pins the user-op registration the piece must run under
	// (user ops only; 0 for builtins). The worker verifies it against
	// its own registry and answers op_hash on mismatch.
	OpHash uint64
}

// ScanXchg runs one exchange-mode piece on the server: the raw segment
// travels un-seeded, the worker exchanges block sums with its peers,
// and the response is the piece's seeded scan — bit-identical to a star
// dispatch of the same piece.
func (c *Client) ScanXchg(ctx context.Context, op, kind, dir, tenant string, data []int64, x XchgPiece) ([]int64, error) {
	req := WireRequest{
		Type: "scan_xchg", Op: op, Kind: kind, Dir: dir, Tenant: tenant, Data: data,
		Group: x.Group, Rank: x.Rank, Peers: x.Peers,
		XHead: x.Head, XSeed: x.Seeded, Init: x.Init, OpHash: x.OpHash,
	}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		resp.Result = []int64{}
	}
	return resp.Result, nil
}

// CarryXchg delivers one carry-exchange message to the peer this client
// is connected to: rank `from`'s running pair for round `round`,
// addressed to rank `to` of `group`. The peer acks after depositing it
// in its mailbox.
func (c *Client) CarryXchg(ctx context.Context, group uint64, round, from, to int, val int64, reset bool) error {
	_, err := c.roundTrip(ctx, WireRequest{
		Type: "carry_xchg", Group: group, Round: round, From: from, Rank: to,
		XVal: val, XReset: reset,
	})
	return err
}

// sendCarry ships rank from's running pair to rank to. Co-hosted ranks
// (same worker address) short-circuit through the local mailbox — the
// common case when one worker hosts several pieces.
func (ns *NetServer) sendCarry(ctx context.Context, group uint64, round, from, to int, peers []string, t xpair) error {
	key := xchgKey{group: group, rank: uint32(to), round: uint32(round)}
	if peers[to] == peers[from] {
		ns.xchg.deposit(key, xchgMsg{val: t.v, reset: t.r})
		return nil
	}
	cli, err := ns.peers.get(ctx, peers[to])
	if err != nil {
		return err
	}
	if err := cli.CarryXchg(ctx, group, round, from, to, t.v, t.r); err != nil {
		// Whatever went wrong, a fresh connection next round beats a
		// possibly-poisoned pooled one; carries are tiny, redials cheap.
		ns.peers.drop(peers[to], cli)
		return err
	}
	return nil
}

// serveXchgPiece is the worker half of one exchange-mode piece: fold
// the raw segment, run the hypercube carry exchange, apply the carry,
// scan, and return the caller-owned result. Any peer failure returns
// ErrXchgFailed (typed: the worker is alive) and the coordinator falls
// back to the star plane.
func (ns *NetServer) serveXchgPiece(ctx context.Context, spec Spec, req WireRequest, tenant string) ([]int64, error) {
	k := len(req.Peers)
	rank := req.Rank
	if k < 1 || rank < 0 || rank >= k {
		return nil, fmt.Errorf("%w: scan_xchg rank %d outside peer ring of %d", ErrBadRequest, rank, k)
	}
	data := req.Data
	op := spec.Op
	var fr combine.Frame
	if spec.Op == OpUser {
		// Forward only: ⊗ folds on the right while the star chain's
		// backward seed folds on the left, and a user op need not be
		// commutative (see the package comment).
		if spec.Dir == Backward {
			return nil, fmt.Errorf("%w: backward user-op scans run on the star plane only", ErrBadRequest)
		}
		rs, ok := ns.be.(OpResolver)
		if !ok {
			return nil, fmt.Errorf("%w: backend hosts no user-op registry", ErrBadRequest)
		}
		var err error
		if spec, err = rs.ResolveScanOp(spec, tenant); err != nil {
			return nil, err
		}
	}

	fold, err := FoldSpec(spec, data)
	if err != nil {
		return nil, err
	}
	// The piece's contribution: for a backward piece opening at a head,
	// the star chain resets to the identity AFTER seeding the pieces to
	// its left, so the head piece contributes (identity, reset).
	cv := fold
	if req.XHead && spec.Dir == Backward {
		cv = Identity(op)
	}
	T := xpair{v: cv, r: req.XHead}   // running subcube total
	C := xpair{v: IdentitySpec(spec)} // exclusive prefix of lower ranks

	timeout := ns.ncfg.XchgRoundTimeout
	rounds := bits.Len(uint(k - 1))
	for j := 0; j < rounds; j++ {
		partner := rank ^ (1 << j)
		if partner >= k {
			continue // virtual partner: holds the identity, nothing to swap
		}
		rctx, cancel := context.WithTimeout(ctx, timeout)
		ns.fpXchgSlow.Sleep()
		if ns.fpXchgDrop.Fire() {
			// Chaos: "lose" our half of the swap. The partner's await
			// times out and its coordinator falls back to star.
		} else if err := ns.sendCarry(rctx, req.Group, j, rank, partner, req.Peers, T); err != nil {
			cancel()
			return nil, fmt.Errorf("%w: round %d send to rank %d: %v", ErrXchgFailed, j, partner, err)
		}
		m, err := ns.xchg.await(rctx, xchgKey{group: req.Group, rank: uint32(rank), round: uint32(j)}, timeout)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%w: round %d await from rank %d: %v", ErrXchgFailed, j, partner, err)
		}
		P := xpair{v: m.val, r: m.reset}
		var cerr error
		if partner < rank {
			// The partner's subcube sits immediately below ours in rank
			// order: it joins the exclusive prefix and prepends the total.
			if C, cerr = xcombSpec(spec, &fr, P, C); cerr == nil {
				T, cerr = xcombSpec(spec, &fr, P, T)
			}
		} else {
			T, cerr = xcombSpec(spec, &fr, T, P)
		}
		if cerr != nil {
			return nil, cerr
		}
	}

	if !req.XSeed {
		// The carry does not apply (piece 0 of an unseeded scan, a
		// forward piece at a head, or a backward piece whose right edge
		// is a head): scan the raw segment. The exchange still ran — the
		// peers needed this piece's block sum.
		return ns.be.Scan(ctx, spec, data, tenant)
	}
	seed := C.v
	if !C.r {
		var err error
		if seed, err = CombineSpec(spec, &fr, req.Init, C.v); err != nil {
			return nil, err
		}
	}
	// Apply by the star plane's phantom-element trick, through our own
	// backend so the piece fuses into batches like any other request:
	// scan [seed, data...] (mirrored for backward) and drop the phantom.
	payload := arena.GetInt64s(len(data) + 1)
	if spec.Dir == Backward {
		copy(payload, data)
		payload[len(data)] = seed
	} else {
		payload[0] = seed
		copy(payload[1:], data)
	}
	res, err := ns.be.Scan(ctx, spec, payload, tenant)
	arena.PutInt64s(payload)
	if err != nil {
		return nil, err
	}
	if len(res) != len(data)+1 {
		releaseData(res)
		return nil, fmt.Errorf("%w: seeded piece scan returned %d results for %d elements", ErrInternal, len(res), len(data)+1)
	}
	// Copy rather than subslice: a subslice would lose the arena
	// buffer's Put-able base pointer.
	out := arena.GetInt64s(len(data))
	if spec.Dir == Backward {
		copy(out, res[:len(data)])
	} else {
		copy(out, res[1:])
	}
	releaseData(res)
	return out, nil
}
