package serve

// tenantQueues is the batcher's fairness structure: arrivals off the
// FIFO submission channel are parked in per-tenant FIFOs, and batch
// slots are handed out by weighted round-robin across the tenants that
// currently have work. Within a tenant, order stays FIFO; across
// tenants, a flooder's backlog waits in its own queue while everyone
// else's requests go into the very next batch — graceful degradation
// to a fair share instead of FIFO starvation (ROADMAP "multi-tenant
// fairness").
//
// Owned by the single batcher goroutine; no locking.
type tenantQueues struct {
	weights map[string]int
	qs      map[string]*tenantFIFO
	ring    []*tenantFIFO // tenants with pending work, pick order
	idx     int           // current ring position
	credit  int           // batch slots left for ring[idx] this round
	n       int           // total pending futures
}

// tenantFIFO is one tenant's pending requests, FIFO with a head index
// so pops don't reslice-copy.
type tenantFIFO struct {
	name   string
	weight int
	futs   []*future
	head   int
}

func (q *tenantFIFO) len() int { return len(q.futs) - q.head }

func (q *tenantFIFO) popFront() *future {
	f := q.futs[q.head]
	q.futs[q.head] = nil // release for GC
	q.head++
	if q.head == len(q.futs) {
		q.futs = q.futs[:0]
		q.head = 0
	}
	return f
}

// newTenantQueues builds the structure; weights maps tenant names to
// slots-per-round (missing or < 1 means 1).
func newTenantQueues(weights map[string]int) *tenantQueues {
	return &tenantQueues{
		weights: weights,
		qs:      make(map[string]*tenantFIFO),
	}
}

func (t *tenantQueues) empty() bool { return t.n == 0 }

// push appends a future to its tenant's FIFO, adding the tenant to the
// pick ring when it transitions from idle to pending. The tenant joins
// the ring at the tail of the CURRENT ROUND — inserted just before the
// pick position — not at the end of the array. Appending at the array
// end is subtly unfair: when the pick pointer sits near the end,
// tenants that drain and re-enter keep landing in the slot under the
// pointer, so the wrap back to position 0 can be postponed indefinitely
// and the tenants parked there starve without bound
// (TestTenantQueuesPropertyRandomized catches this). Joining behind the
// pointer means a newcomer waits at most one full round, and every
// continuously-pending tenant is served at least once per total-weight
// pops.
func (t *tenantQueues) push(f *future) {
	q := t.qs[f.tenant]
	if q == nil {
		w := t.weights[f.tenant]
		if w < 1 {
			w = 1
		}
		q = &tenantFIFO{name: f.tenant, weight: w}
		t.qs[f.tenant] = q
	}
	if q.len() == 0 {
		if t.idx >= len(t.ring) {
			t.idx = 0
		}
		t.ring = append(t.ring, nil)
		copy(t.ring[t.idx+1:], t.ring[t.idx:])
		t.ring[t.idx] = q
		t.idx++
	}
	q.futs = append(q.futs, f)
	t.n++
}

// pop removes and returns the next future under weighted round-robin,
// or nil when nothing is pending. The current tenant keeps the slot
// until its per-round credit (= weight) is spent or its FIFO empties;
// then the pick advances to the next tenant in ring order.
func (t *tenantQueues) pop() *future {
	if t.n == 0 {
		return nil
	}
	if t.idx >= len(t.ring) {
		t.idx = 0
	}
	q := t.ring[t.idx]
	if t.credit <= 0 {
		t.credit = q.weight
	}
	f := q.popFront()
	t.n--
	t.credit--
	if q.len() == 0 {
		// Tenant drained: drop it from the ring (and the map, so
		// short-lived tenant names — e.g. remote addresses — don't
		// accumulate) and hand the next tenant a fresh credit.
		t.ring = append(t.ring[:t.idx], t.ring[t.idx+1:]...)
		delete(t.qs, q.name)
		t.credit = 0
	} else if t.credit == 0 {
		t.idx++
	}
	return f
}
