package cluster

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scans/internal/serve"
)

// Stream-session durability: every coordinator stream gets a session
// record — (spec, tenant, chunk count, running carry) plus a short ring
// of recent (seq, carry) pairs — keyed by an unguessable resume token.
// The record is what a stream IS, minus the TCP connection: the carry
// algebra means re-attaching at chunk k needs exactly the carry after
// chunk k and nothing else, so a client that lost its connection (or
// its whole coordinator) resumes bit-identically from the record.
//
// Records replicate to standby coordinators over a tiny newline-JSON
// feed (replServer/follower below): "reset" + full snapshot on connect,
// then live put/upd/del. The ring is why a LAGGING standby still works:
// the client may hold acks the standby never saw (resume rolls the
// client back — rewind is always safe, results are recomputed
// bit-identically) and the standby may hold state for chunks whose acks
// the client never received (the ring rolls the RECORD back, up to
// serve.StreamWindow chunks — the most that can ever be in flight under
// the credit window).
//
// Lock ordering: sessionTable.mu is the INNER lock — coordStream
// methods hold their own st.mu while calling into the table, never the
// reverse. resume() touches only the table and builds the new stream
// before anyone else can see it.

// ringSize bounds the per-record rollback ring. A client honoring the
// credit window has at most serve.StreamWindow unacked chunks in
// flight, so StreamWindow+1 entries (including the pre-first-chunk
// state) cover every reachable rollback.
const ringSize = serve.StreamWindow + 1

type carryEntry struct {
	Seq   uint64 `json:"s"`
	Carry int64  `json:"c"`
}

// sessionRecord is one stream's durable state. owner non-nil means a
// live coordStream on THIS coordinator is attached; nil means detached
// (connection died, or the record is a replica) and resumable until
// deadline.
type sessionRecord struct {
	token  string
	spec   serve.Spec
	tenant string

	seq      uint64       // chunks applied
	carry    int64        // carry after chunk seq
	ring     []carryEntry // ascending seq, ends at (seq, carry)
	owner    *coordStream
	deadline time.Time // expiry while detached; zero while owned
}

// replEvent is one line of the replication feed.
type replEvent struct {
	Kind   string       `json:"k"` // "reset", "put", "upd", "del"
	Token  string       `json:"t,omitempty"`
	Op     string       `json:"op,omitempty"`
	SKind  string       `json:"kind,omitempty"`
	Dir    string       `json:"dir,omitempty"`
	Tenant string       `json:"tn,omitempty"`
	Seq    uint64       `json:"s,omitempty"`
	Carry  int64        `json:"c,omitempty"`
	Ring   []carryEntry `json:"r,omitempty"`
}

// replSub is one connected follower on the publishing side.
type replSub struct {
	conn net.Conn
	ch   chan []byte // encoded lines; overflow kills the sub (follower resyncs)
	quit chan struct{}
	once sync.Once
}

func (s *replSub) kill() {
	s.once.Do(func() {
		close(s.quit)
		s.conn.Close()
	})
}

// sessionTable holds every record this coordinator knows — its own and
// replicas — plus the replication subscriber set.
type sessionTable struct {
	ttl   time.Duration
	stats *coordStats

	mu   sync.Mutex
	recs map[string]*sessionRecord
	subs map[*replSub]struct{}

	quit chan struct{}
	done chan struct{}
}

func newSessionTable(ttl time.Duration, stats *coordStats) *sessionTable {
	t := &sessionTable{
		ttl:   ttl,
		stats: stats,
		recs:  make(map[string]*sessionRecord),
		subs:  make(map[*replSub]struct{}),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go t.janitor()
	return t
}

// newToken mints a resume token: 128 random bits, hex. Unguessable, so
// holding a token IS the resume capability.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// register creates the record for a freshly opened stream and returns
// its token.
func (t *sessionTable) register(st *coordStream) string {
	tok := newToken()
	rec := &sessionRecord{
		token:  tok,
		spec:   st.spec,
		tenant: st.tenant,
		carry:  st.carry,
		ring:   []carryEntry{{Seq: 0, Carry: st.carry}},
		owner:  st,
	}
	t.mu.Lock()
	t.recs[tok] = rec
	t.broadcastLocked(putEvent(rec))
	t.mu.Unlock()
	return tok
}

func putEvent(rec *sessionRecord) replEvent {
	ring := make([]carryEntry, len(rec.ring))
	copy(ring, rec.ring)
	return replEvent{
		Kind:   "put",
		Token:  rec.token,
		Op:     rec.spec.OpString(), // "user:<name>" for user ops — ParseSpec round-trips it
		SKind:  rec.spec.Kind.String(),
		Dir:    rec.spec.Dir.String(),
		Tenant: rec.tenant,
		Seq:    rec.seq,
		Carry:  rec.carry,
		Ring:   ring,
	}
}

// advance records chunk seq's carry on behalf of st. Returns false when
// st no longer owns the record — the session was resumed elsewhere
// while st's chunk was in flight — in which case st must fail itself
// and leave the record alone.
func (t *sessionTable) advance(st *coordStream, seq uint64, carry int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recs[st.token]
	if rec == nil || rec.owner != st {
		return false
	}
	rec.seq, rec.carry = seq, carry
	rec.ring = append(rec.ring, carryEntry{Seq: seq, Carry: carry})
	if len(rec.ring) > ringSize {
		rec.ring = rec.ring[len(rec.ring)-ringSize:]
	}
	t.broadcastLocked(replEvent{Kind: "upd", Token: st.token, Seq: seq, Carry: carry})
	return true
}

// detach releases st's ownership without deleting the record: the
// carrying connection died, so the session becomes resumable until the
// TTL. No-op if st was already displaced by a resume.
func (t *sessionTable) detach(st *coordStream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recs[st.token]
	if rec == nil || rec.owner != st {
		return
	}
	rec.owner = nil
	rec.deadline = time.Now().Add(t.ttl)
}

// removeOwned deletes st's record — clean close, failed chunk, or idle
// expiry all end the session everywhere (the delete replicates). No-op
// if st was displaced by a resume: the thief's session must survive.
func (t *sessionTable) removeOwned(st *coordStream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recs[st.token]
	if rec == nil || rec.owner != st {
		return
	}
	delete(t.recs, st.token)
	t.broadcastLocked(replEvent{Kind: "del", Token: st.token})
}

// resume re-attaches a client to a record, STEALING ownership from any
// stream still attached (the thief's claim — a live client holding the
// token — outranks a stream whose connection is presumed dead; if that
// stream is in fact still running, its next advance returns false and
// it fails harmlessly). Returns the new stream and resumeFrom, the
// 1-based index of the next chunk expected.
//
// Three cases against lastAcked, the client's count of acked chunks:
//   - lastAcked == rec.seq: exact agreement; resume from seq+1.
//   - lastAcked > rec.seq: this replica lagged the acks (standby never
//     saw the primary's last upds). Resume from OUR seq+1; the client
//     rewinds its output and resends — recomputation is bit-identical.
//   - lastAcked < rec.seq: the record ran ahead of the acks the client
//     received (acks lost with the dying connection). Roll the record
//     back via the ring to exactly lastAcked.
func (t *sessionTable) resume(c *Coordinator, token string, lastAcked uint64) (*coordStream, uint64, error) {
	t.mu.Lock()
	rec := t.recs[token]
	if rec == nil {
		t.mu.Unlock()
		t.stats.resumeMisses.Add(1)
		return nil, 0, fmt.Errorf("%w: unknown or expired resume token", serve.ErrNoStream)
	}
	if lastAcked < rec.seq {
		ok := false
		for _, e := range rec.ring {
			if e.Seq == lastAcked {
				rec.seq, rec.carry = e.Seq, e.Carry
				ok = true
				break
			}
		}
		if !ok {
			// The rollback point left the ring — only possible for a
			// client that overran the credit window. Refuse rather than
			// corrupt the carry.
			t.mu.Unlock()
			t.stats.resumeMisses.Add(1)
			return nil, 0, fmt.Errorf("%w: resume point %d is beyond the rollback ring", serve.ErrNoStream, lastAcked)
		}
		for len(rec.ring) > 0 && rec.ring[len(rec.ring)-1].Seq > rec.seq {
			rec.ring = rec.ring[:len(rec.ring)-1]
		}
		t.broadcastLocked(replEvent{Kind: "upd", Token: token, Seq: rec.seq, Carry: rec.carry})
	}
	spec := rec.spec
	if spec.Op == serve.OpUser && spec.Binding() == nil {
		// A replicated (or follower-rebuilt) record carries the spec as
		// strings, so a user op arrives UNBOUND — bind it against THIS
		// coordinator's registry now. No registration here means the
		// session cannot continue (each coordinator's registry is its
		// own); that is a resume miss, not a corrupt stream.
		var err error
		spec, err = serve.ResolveOp(c.userOps.reg, spec, rec.tenant)
		if err != nil {
			t.mu.Unlock()
			t.stats.resumeMisses.Add(1)
			return nil, 0, fmt.Errorf("%w: session's user op is not registered on this coordinator: %v",
				serve.ErrNoStream, err)
		}
	}
	st := &coordStream{
		c:      c,
		spec:   spec,
		tenant: rec.tenant,
		token:  token,
		carry:  rec.carry,
		seq:    rec.seq,
	}
	rec.owner = st
	rec.deadline = time.Time{}
	from := rec.seq + 1
	t.mu.Unlock()
	return st, from, nil
}

// broadcastLocked fans one event to every subscriber (t.mu held). A
// subscriber whose channel is full is killed — it will reconnect and
// resync from a fresh snapshot, which is cheaper than ever blocking the
// serving path on a slow follower.
func (t *sessionTable) broadcastLocked(ev replEvent) {
	if len(t.subs) == 0 {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	for sub := range t.subs {
		select {
		case sub.ch <- line:
		default:
			delete(t.subs, sub)
			sub.kill()
		}
	}
}

// applyReplicated applies one event from the upstream feed. Locally
// OWNED records are never touched: once this coordinator resumed a
// session, its own state outranks a stale primary's.
func (t *sessionTable) applyReplicated(ev replEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case "reset":
		// Fresh snapshot incoming: drop every replica record (the puts
		// that follow rebuild them); keep owned ones.
		for tok, rec := range t.recs {
			if rec.owner == nil {
				delete(t.recs, tok)
			}
		}
	case "put":
		if old := t.recs[ev.Token]; old != nil && old.owner != nil {
			return
		}
		spec, err := serve.ParseSpec(ev.Op, ev.SKind, ev.Dir)
		if err != nil {
			return
		}
		ring := ev.Ring
		if len(ring) == 0 {
			ring = []carryEntry{{Seq: ev.Seq, Carry: ev.Carry}}
		}
		t.recs[ev.Token] = &sessionRecord{
			token:    ev.Token,
			spec:     spec,
			tenant:   ev.Tenant,
			seq:      ev.Seq,
			carry:    ev.Carry,
			ring:     ring,
			deadline: time.Now().Add(t.ttl),
		}
		t.broadcastLocked(ev) // chained standbys see the same feed
	case "upd":
		rec := t.recs[ev.Token]
		if rec == nil || rec.owner != nil {
			return
		}
		rec.seq, rec.carry = ev.Seq, ev.Carry
		// The upstream may be replaying a rollback (its resume trimmed
		// the ring); mirror by trimming anything at or past the new seq
		// before appending.
		for len(rec.ring) > 0 && rec.ring[len(rec.ring)-1].Seq >= ev.Seq {
			rec.ring = rec.ring[:len(rec.ring)-1]
		}
		rec.ring = append(rec.ring, carryEntry{Seq: ev.Seq, Carry: ev.Carry})
		if len(rec.ring) > ringSize {
			rec.ring = rec.ring[len(rec.ring)-ringSize:]
		}
		rec.deadline = time.Now().Add(t.ttl)
		t.broadcastLocked(ev)
	case "del":
		if rec := t.recs[ev.Token]; rec != nil && rec.owner == nil {
			delete(t.recs, ev.Token)
			t.broadcastLocked(ev)
		}
	}
}

// janitor reaps detached records whose deadline passed: a session
// nobody resumed within ResumeTTL is gone for good.
func (t *sessionTable) janitor() {
	defer close(t.done)
	period := t.ttl / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
			now := time.Now()
			t.mu.Lock()
			for tok, rec := range t.recs {
				if rec.owner == nil && !rec.deadline.IsZero() && now.After(rec.deadline) {
					delete(t.recs, tok)
					t.broadcastLocked(replEvent{Kind: "del", Token: tok})
				}
			}
			t.mu.Unlock()
		}
	}
}

// addSub registers a fresh follower connection: under one lock hold it
// queues the reset marker plus a put for every record, so the follower
// sees an atomic snapshot with live events strictly after it.
func (t *sessionTable) addSub(conn net.Conn) *replSub {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub := &replSub{
		conn: conn,
		ch:   make(chan []byte, len(t.recs)+4096),
		quit: make(chan struct{}),
	}
	if line, err := json.Marshal(replEvent{Kind: "reset"}); err == nil {
		sub.ch <- append(line, '\n')
	}
	for _, rec := range t.recs {
		if line, err := json.Marshal(putEvent(rec)); err == nil {
			sub.ch <- append(line, '\n')
		}
	}
	t.subs[sub] = struct{}{}
	return sub
}

func (t *sessionTable) dropSub(sub *replSub) {
	t.mu.Lock()
	delete(t.subs, sub)
	t.mu.Unlock()
	sub.kill()
}

// close stops the janitor and kills every subscriber.
func (t *sessionTable) close() {
	close(t.quit)
	<-t.done
	t.mu.Lock()
	subs := make([]*replSub, 0, len(t.subs))
	for sub := range t.subs {
		subs = append(subs, sub)
	}
	t.subs = map[*replSub]struct{}{}
	t.mu.Unlock()
	for _, sub := range subs {
		sub.kill()
	}
}

// replServer publishes the session feed (Config.ReplListen).
type replServer struct {
	ln   net.Listener
	tbl  *sessionTable
	quit chan struct{}
	wg   sync.WaitGroup
}

func startReplServer(addr string, tbl *sessionTable) (*replServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rs := &replServer{ln: ln, tbl: tbl, quit: make(chan struct{})}
	rs.wg.Add(1)
	go rs.acceptLoop()
	return rs, nil
}

func (rs *replServer) addr() string { return rs.ln.Addr().String() }

func (rs *replServer) acceptLoop() {
	defer rs.wg.Done()
	for {
		conn, err := rs.ln.Accept()
		if err != nil {
			select {
			case <-rs.quit:
				return
			default:
				continue
			}
		}
		sub := rs.tbl.addSub(conn)
		rs.wg.Add(2)
		go rs.writeLoop(sub)
		go func() {
			// Followers never send; a read returning means the conn died,
			// which unblocks a writeLoop idling on an empty channel.
			defer rs.wg.Done()
			io.Copy(io.Discard, conn)
			rs.tbl.dropSub(sub)
		}()
	}
}

func (rs *replServer) writeLoop(sub *replSub) {
	defer rs.wg.Done()
	defer rs.tbl.dropSub(sub)
	for {
		select {
		case <-sub.quit:
			return
		case line := <-sub.ch:
			if _, err := sub.conn.Write(line); err != nil {
				return
			}
		}
	}
}

func (rs *replServer) close() {
	close(rs.quit)
	rs.ln.Close()
	rs.tbl.close() // kills subs, unblocking write loops
	rs.wg.Wait()
}

// follower mirrors a primary's feed into the local table
// (Config.Follow). It redials forever — a standby's whole job is to
// outlive the primary, so a dead feed is an expected state, not an
// error.
type follower struct {
	addr string
	tbl  *sessionTable
	quit chan struct{}
	done chan struct{}
}

func startFollower(addr string, tbl *sessionTable) *follower {
	f := &follower{addr: addr, tbl: tbl, quit: make(chan struct{}), done: make(chan struct{})}
	go f.loop()
	return f
}

const followRedial = 200 * time.Millisecond

func (f *follower) loop() {
	defer close(f.done)
	for {
		select {
		case <-f.quit:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", f.addr, time.Second)
		if err != nil {
			select {
			case <-f.quit:
				return
			case <-time.After(followRedial):
			}
			continue
		}
		connDone := make(chan struct{})
		go func() {
			select {
			case <-f.quit:
				conn.Close()
			case <-connDone:
			}
		}()
		f.consume(conn)
		close(connDone)
		conn.Close()
	}
}

func (f *follower) consume(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev replEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return // torn feed: drop the conn and resync
		}
		f.tbl.applyReplicated(ev)
	}
}

func (f *follower) close() {
	close(f.quit)
	<-f.done
}
