package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"scans/internal/combine"
	"scans/internal/serve"
)

// User combine ops across the fleet: the coordinator owns the
// authoritative registry (validated exactly like a single node's — see
// internal/combine), and every worker that runs a piece needs a copy of
// the bytecode. Propagation is keyed by the registration's CONTENT HASH
// rather than by name: the coordinator pins the hash on every piece it
// dispatches, a worker verifies its own registration against the pin
// before combining, and a mismatch — stale bytecode after a
// re-registration, a worker that restarted and lost the op, a freshly
// joined worker that never saw it — comes back as the typed op_hash /
// bad_request answer rather than a silently wrong scan.
//
// Push discipline: registrations are pushed eagerly to the fleet known
// at register time (best-effort, bounded by opPushTimeout) and lazily
// everywhere else — attemptOn pre-pushes from the per-worker cache
// before a piece's first use on a worker, and re-pushes + retries once
// when the worker answers op_hash/bad_request anyway (the cache can lie
// across a worker restart).

// opPushTimeout bounds one best-effort registration push.
const opPushTimeout = 2 * time.Second

// userOps is the coordinator's user-op state: the authoritative
// registry plus the per-worker propagation cache.
type userOps struct {
	reg *combine.Registry

	mu sync.Mutex
	// pushed maps worker addr + tenant + op name -> the content hash this
	// coordinator last successfully pushed there. Advisory only: a worker
	// restart invalidates it silently, which the op_hash retry repairs.
	pushed map[string]uint64
}

func newUserOps(capPerTenant int) *userOps {
	return &userOps{reg: combine.NewRegistry(capPerTenant), pushed: make(map[string]uint64)}
}

func pushKey(addr, tenant, name string) string {
	return addr + "\x00" + tenant + "\x00" + name
}

var _ serve.OpRegistrar = (*Coordinator)(nil)

// RegisterScanOp implements serve.OpRegistrar on the coordinator:
// validate source as a monoid (property tests, counterexample on
// rejection), install it under (tenant, name), and push it to the
// current fleet best-effort. Workers that miss the push — down now, or
// joining later — are repaired lazily by the per-piece push machinery,
// so registration never blocks on a sick fleet.
func (c *Coordinator) RegisterScanOp(tenant, name, source string) (uint64, error) {
	if c.closed.Load() {
		return 0, serve.ErrClosed
	}
	reg, err := c.userOps.reg.Register(tenant, name, source)
	if err != nil {
		c.stats.opRejects.Add(1)
		return 0, fmt.Errorf("%w: %w", serve.ErrBadOp, err)
	}
	c.stats.opRegisters.Add(1)

	ctx, cancel := context.WithTimeout(context.Background(), opPushTimeout)
	defer cancel()
	ws := c.reg.snapshot()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			cli, err := w.client()
			if err != nil {
				c.stats.opPushFails.Add(1)
				return
			}
			if err := c.pushOp(ctx, w, cli, tenant, reg); err != nil {
				c.stats.opPushFails.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return reg.Hash, nil
}

// ensureOpPushed pushes reg to w unless the cache says this exact hash
// already landed there. Best-effort: a failed push is not fatal — the
// piece attempt itself will surface the worker's true state.
func (c *Coordinator) ensureOpPushed(ctx context.Context, w *worker, cli *serve.Client, tenant string, reg *combine.Registered) {
	c.userOps.mu.Lock()
	cur := c.userOps.pushed[pushKey(w.addr, tenant, reg.Name)]
	c.userOps.mu.Unlock()
	if cur == reg.Hash {
		return
	}
	if err := c.pushOp(ctx, w, cli, tenant, reg); err != nil {
		c.stats.opPushFails.Add(1)
	}
}

// pushOp registers reg on worker w over cli and records the push. The
// worker hashing the same source to a DIFFERENT value is a version-skew
// error (typed op_hash) — scans pinned to our hash would never run
// there, so surfacing it beats caching a lie.
func (c *Coordinator) pushOp(ctx context.Context, w *worker, cli *serve.Client, tenant string, reg *combine.Registered) error {
	hash, err := cli.RegisterOp(ctx, tenant, reg.Name, reg.Source)
	if err != nil {
		return err
	}
	if hash != reg.Hash {
		return fmt.Errorf("%w: worker %s hashed op %q to %#016x, coordinator holds %#016x",
			serve.ErrOpHash, w.addr, reg.Name, hash, reg.Hash)
	}
	c.stats.opPushes.Add(1)
	c.userOps.mu.Lock()
	c.userOps.pushed[pushKey(w.addr, tenant, reg.Name)] = hash
	c.userOps.mu.Unlock()
	return nil
}

// invalidatePush forgets the cached push of reg to addr, so the next
// use re-pushes. Called when a worker answers op_hash despite the cache
// (it restarted, or someone re-registered behind our back).
func (c *Coordinator) invalidatePush(addr, tenant, name string) {
	c.userOps.mu.Lock()
	delete(c.userOps.pushed, pushKey(addr, tenant, name))
	c.userOps.mu.Unlock()
}

// opStale reports whether a piece error means "this worker holds the
// wrong (or no) registration" — the two answers a push + retry repairs:
// the typed op_hash mismatch, and the bad_request an unregistered name
// resolves to. (A bad_request for any other cause retries into the same
// bad_request — wasteful once, never wrong.)
func opStale(err error) bool {
	return errors.Is(err, serve.ErrOpHash) || errors.Is(err, serve.ErrBadRequest)
}
