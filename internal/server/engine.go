package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tpctl/loadctl/internal/cc"
	"github.com/tpctl/loadctl/internal/db"
	"github.com/tpctl/loadctl/internal/kv"
)

// ErrAborted is returned by Engine.Exec when concurrency control kills the
// attempt (certification failure, deadlock victim, wait-die loser). The
// caller decides whether to restart — exactly the retry loop whose wasted
// work drives the thrashing the controllers fight.
var ErrAborted = errors.New("server: transaction aborted by concurrency control")

// TxnSpec is one transaction attempt: the items to access in order and the
// per-item write intent. A read-only spec is the paper's "query" shape; a
// spec with writes is an "updater". Class is the admission-class index,
// threaded through to the store's per-class conflict counters.
type TxnSpec struct {
	Keys  []int
	Write []bool
	Class int
}

// Update reports whether the spec writes at least one item.
func (s TxnSpec) Update() bool {
	for _, w := range s.Write {
		if w {
			return true
		}
	}
	return false
}

// Engine executes one transaction attempt against the shared store. Exec
// returns nil on commit, ErrAborted when the attempt must be restarted, or
// ctx.Err() when the caller gave up while blocked. Implementations are safe
// for concurrent use; one Exec call is one transaction incarnation.
type Engine interface {
	Exec(ctx context.Context, spec TxnSpec) error
	Name() string
}

// occEngine runs transactions through the kv store's native optimistic
// certification: fully concurrent reads, commit-time validation under the
// write locks of only the shards the transaction touched, so disjoint
// transactions commit in parallel.
type occEngine struct {
	store *kv.Store
}

// NewOCC returns the kv-native optimistic engine.
func NewOCC(store *kv.Store) Engine { return &occEngine{store: store} }

// Name implements Engine.
func (e *occEngine) Name() string { return "kv-occ" }

// Exec implements Engine. Each access reads the item; writes increment it,
// making every commit observable and every certification conflict real.
// The access loop re-checks ctx periodically so a large transaction whose
// client disconnected abandons instead of finishing work nobody will read.
// Transactions come from the store's pool (BeginPooled/Release), so one
// attempt allocates nothing in steady state.
//
//loadctl:hotpath
func (e *occEngine) Exec(ctx context.Context, spec TxnSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	txn := e.store.BeginPooled().WithClass(spec.Class)
	defer txn.Release()
	for i, key := range spec.Keys {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := txn.Get(key)
		if spec.Write[i] {
			txn.Set(key, v+1)
		}
	}
	if err := txn.Commit(); err != nil {
		if errors.Is(err, kv.ErrConflict) {
			return ErrAborted
		}
		return err
	}
	return nil
}

// ccEngine adapts any cc.Protocol — designed for the single-threaded
// simulation engine — to live goroutine concurrency. Protocol calls are
// serialized under mu (the protocol is the bottleneck resource, as a lock
// manager is in a real DBMS); Blocked results park the goroutine on a
// per-transaction channel outside the lock, and the unblocked lists
// returned by Commit/Abort wake the granted waiters. Data lives in the kv
// store, accessed through its direct Read/Write path since the protocol
// provides the serialization guarantees.
type ccEngine struct {
	name  string
	store *kv.Store
	start time.Time

	mu      sync.Mutex
	proto   cc.Protocol
	nextID  cc.TxnID
	waiters map[cc.TxnID]chan struct{}
}

// NewCC wraps proto around the store. The protocol instance must be used by
// this engine exclusively.
func NewCC(store *kv.Store, proto cc.Protocol) Engine {
	return &ccEngine{
		name:    "cc-" + proto.Name(),
		store:   store,
		start:   time.Now(),
		proto:   proto,
		waiters: make(map[cc.TxnID]chan struct{}),
	}
}

// Name implements Engine.
func (e *ccEngine) Name() string { return e.name }

// Stats returns a snapshot of the wrapped protocol's counters.
func (e *ccEngine) Stats() cc.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.proto.Stats()
}

func (e *ccEngine) now() float64 { return time.Since(e.start).Seconds() }

// wakeLocked closes the wait channels of newly unblocked transactions.
// Callers hold mu.
func (e *ccEngine) wakeLocked(ids []cc.TxnID) {
	for _, id := range ids {
		if ch, ok := e.waiters[id]; ok {
			delete(e.waiters, id)
			close(ch)
		}
	}
}

// Exec implements Engine: Begin → Access* (blocking where the protocol
// says so) → Certify → Commit/Abort. mu covers individual protocol calls
// only — never the data accesses between them — so transactions genuinely
// interleave: optimistic protocols see real certification conflicts and
// blocking protocols real lock waits, reproducing the contention the
// controllers are built to manage. Writes are buffered and installed
// atomically with Certify+Commit under mu, which makes the
// validate-then-apply step indivisible for optimistic protocols and keeps
// strictness (writes only under held locks) for blocking ones.
func (e *ccEngine) Exec(ctx context.Context, spec TxnSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	e.nextID++
	id := e.nextID
	e.proto.Begin(id, e.now())
	e.mu.Unlock()

	writes := make(map[int]int64, len(spec.Keys))
	for i, key := range spec.Keys {
		e.mu.Lock()
		switch e.proto.Access(id, db.Item(key), spec.Write[i]) {
		case cc.Blocked:
			ch := make(chan struct{})
			e.waiters[id] = ch
			e.mu.Unlock()
			select {
			case <-ch:
				// Granted as part of another transaction's release; the
				// lock is ours, fall through to the data access.
			case <-ctx.Done():
				e.mu.Lock()
				delete(e.waiters, id)
				e.wakeLocked(e.proto.Abort(id))
				e.mu.Unlock()
				return ctx.Err()
			}
		case cc.AbortSelf:
			e.wakeLocked(e.proto.Abort(id))
			e.mu.Unlock()
			// A self-abort (wait-die loser, deadlock victim) returns without
			// blocking, and the caller restarts at once. Yield first: the
			// transaction it lost to may be runnable but waiting for a
			// processor, and restart loops that never block would hold
			// every processor until the scheduler's 10 ms preemption —
			// thousands of wait-die deaths per holder.
			runtime.Gosched()
			return ErrAborted
		default:
			e.mu.Unlock()
		}
		v, buffered := writes[key]
		if !buffered {
			v = e.store.Read(key)
		}
		if spec.Write[i] {
			writes[key] = v + 1
		}
	}

	e.mu.Lock()
	if !e.proto.Certify(id) {
		e.wakeLocked(e.proto.Abort(id))
		e.mu.Unlock()
		return ErrAborted
	}
	for key, v := range writes {
		e.store.Write(key, v)
	}
	e.wakeLocked(e.proto.Commit(id, e.now()))
	e.mu.Unlock()
	return nil
}

// NewEngine builds an engine by name over the store: "occ" (kv-native
// optimistic, default), "cert" (the paper's timestamp certification via the
// cc protocol), "2pl" (strict two-phase locking with deadlock detection),
// or "wait-die" (2PL with wait-die prevention).
func NewEngine(name string, store *kv.Store) (Engine, error) {
	switch name {
	case "", "occ":
		return NewOCC(store), nil
	case "cert":
		return NewCC(store, cc.NewCertification(db.New(store.Size()))), nil
	case "2pl":
		return NewCC(store, cc.NewTwoPL()), nil
	case "wait-die":
		return NewCC(store, cc.NewWaitDie()), nil
	default:
		return nil, fmt.Errorf("server: unknown engine %q (want occ, cert, 2pl, wait-die)", name)
	}
}
