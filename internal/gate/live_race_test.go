package gate

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLiveRejectedCounter checks that non-blocking admission failures are
// counted separately from queued admits and timeouts.
func TestLiveRejectedCounter(t *testing.T) {
	l := single(t, 1)
	if !l.TryAcquire(0) {
		t.Fatal("first TryAcquire should succeed")
	}
	for i := 0; i < 3; i++ {
		if l.TryAcquire(0) {
			t.Fatal("TryAcquire above the limit should fail")
		}
	}
	st := l.AggregateStats()
	if st.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", st.Rejected)
	}
	if st.Admitted != 1 || st.Arrivals != 4 {
		t.Fatalf("Admitted/Arrivals = %d/%d, want 1/4", st.Admitted, st.Arrivals)
	}
	l.Release(0)
	if !l.TryAcquire(0) {
		t.Fatal("TryAcquire after Release should succeed")
	}
	if got := l.AggregateStats().Rejected; got != 3 {
		t.Fatalf("Rejected after recovery = %d, want 3", got)
	}
}

// TestLiveAcquireCancelVsSetLimit hammers the admitted-then-cancelled path:
// goroutines Acquire with nearly-expired contexts while another goroutine
// oscillates the limit, so SetLimit wake-ups race context cancellation.
// Run with -race; the final invariant catches leaked or double-counted
// slots.
func TestLiveAcquireCancelVsSetLimit(t *testing.T) {
	l := single(t, 0)
	var (
		wg        sync.WaitGroup
		admitted  atomic.Int64
		cancelled atomic.Int64
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				l.SetPoolLimit(math.Inf(1)) // drain everyone still queued
				return
			default:
			}
			l.SetPoolLimit(float64(i % 4))
		}
	}()

	const workers = 16
	const iters = 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := time.Duration(seed+int64(i)) % 50 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				err := l.Acquire(ctx, 0)
				cancel()
				if err == nil {
					admitted.Add(1)
					l.Release(0)
				} else {
					cancelled.Add(1)
				}
			}
		}(int64(w))
	}

	// Let the workers run against the oscillating limit, then drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: workers did not drain")
	}

	if got := admitted.Load() + cancelled.Load(); got != workers*iters {
		t.Fatalf("accounted %d acquires, want %d", got, workers*iters)
	}
	if a := l.Active(); a != 0 {
		t.Fatalf("leaked %d active slots after all releases", a)
	}
	if q := l.Queued(); q != 0 {
		t.Fatalf("leaked %d queued waiters", q)
	}
	st := l.AggregateStats()
	if st.Admitted+st.Timeouts != st.Arrivals {
		t.Fatalf("counter mismatch: admitted %d + timeouts %d != arrivals %d",
			st.Admitted, st.Timeouts, st.Arrivals)
	}
}

// TestLiveCancelAdmitCounterIdentity hammers the admitted-concurrently-
// with-cancellation race and asserts the full counter identity against
// client-observed outcomes: Admitted must equal the number of Acquire and
// TryAcquire calls that actually returned a slot to their caller, and
// Arrivals == Admitted + Rejected + Timeouts + queued must reconcile
// exactly. Before the cancel-after-admit fix, a waiter whose wake-up
// raced its cancellation handed the slot back but stayed counted in
// Admitted, so Admitted overcounted client successes. Run with -race.
func TestLiveCancelAdmitCounterIdentity(t *testing.T) {
	l := single(t, 0)
	var (
		wg          sync.WaitGroup
		gotSlot     atomic.Int64 // blocking acquires the caller saw succeed
		gaveUp      atomic.Int64 // blocking acquires that returned ctx.Err()
		tryOK       atomic.Int64
		tryRejected atomic.Int64
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				l.SetPoolLimit(math.Inf(1)) // drain everyone still queued
				return
			default:
			}
			l.SetPoolLimit(float64(i % 3))
		}
	}()

	const workers = 16
	const iters = 250
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%7 == 0 {
					// Mix in the non-blocking path so Rejected participates
					// in the identity too.
					if l.TryAcquire(0) {
						tryOK.Add(1)
						l.Release(0)
					} else {
						tryRejected.Add(1)
					}
					continue
				}
				d := time.Duration(seed+int64(i)) % 40 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				err := l.Acquire(ctx, 0)
				cancel()
				if err == nil {
					gotSlot.Add(1)
					l.Release(0)
				} else {
					gaveUp.Add(1)
				}
			}
		}(int64(w))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: workers did not drain")
	}

	if a, q := l.Active(), l.Queued(); a != 0 || q != 0 {
		t.Fatalf("leaked state: active=%d queued=%d", a, q)
	}
	st := l.AggregateStats()
	if want := uint64(gotSlot.Load() + tryOK.Load()); st.Admitted != want {
		t.Fatalf("Admitted = %d, but callers observed %d successful acquires", st.Admitted, want)
	}
	if st.Timeouts != uint64(gaveUp.Load()) {
		t.Fatalf("Timeouts = %d, but callers observed %d abandoned acquires", st.Timeouts, gaveUp.Load())
	}
	if st.Rejected != uint64(tryRejected.Load()) {
		t.Fatalf("Rejected = %d, but callers observed %d refusals", st.Rejected, tryRejected.Load())
	}
	if st.Arrivals != st.Admitted+st.Rejected+st.Timeouts {
		t.Fatalf("identity broken: arrivals %d != admitted %d + rejected %d + timeouts %d (queued 0)",
			st.Arrivals, st.Admitted, st.Rejected, st.Timeouts)
	}
}

// TestLiveFCFSOrderUnderLimitChanges queues waiters in a known arrival
// order against a closed gate, then opens the limit step by step and
// checks admissions happen strictly in arrival order.
func TestLiveFCFSOrderUnderLimitChanges(t *testing.T) {
	const n = 32
	l := single(t, 0)
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := l.Acquire(context.Background(), 0); err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}(i)
		// Ensure waiter i is queued before waiter i+1 arrives so the
		// arrival order is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for l.Queued() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}

	// Open the gate one slot at a time (a single grant per SetLimit keeps
	// recording order deterministic), shrinking it in between to check
	// that a shrink neither admits nor reorders the queue.
	recorded := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}
	for i := 1; i <= n; i++ {
		l.SetPoolLimit(float64(i))
		deadline := time.Now().Add(5 * time.Second)
		for recorded() != i {
			if time.Now().After(deadline) {
				t.Fatalf("admission %d never happened", i)
			}
			time.Sleep(10 * time.Microsecond)
		}
		if i%5 == 0 {
			// Nobody releases, so shrinking below the active count must
			// leave the queue untouched.
			l.SetPoolLimit(float64(i - 3))
			time.Sleep(time.Millisecond)
			if got := recorded(); got != i {
				t.Fatalf("shrink admitted extra waiters: %d recorded, want %d", got, i)
			}
		}
	}
	wg.Wait()

	if len(order) != n {
		t.Fatalf("admitted %d waiters, want %d", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("admission order %v violates FCFS at position %d", order, i)
		}
	}
}

// TestLiveShrinkBelowActive checks that lowering the limit under the
// current active count admits nobody until enough releases happen.
func TestLiveShrinkBelowActive(t *testing.T) {
	l := single(t, 4)
	for i := 0; i < 4; i++ {
		if !l.TryAcquire(0) {
			t.Fatalf("setup acquire %d failed", i)
		}
	}
	l.SetPoolLimit(2)
	waitErr := make(chan error, 1)
	go func() { waitErr <- l.Acquire(context.Background(), 0) }()
	deadline := time.Now().Add(5 * time.Second)
	for l.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(10 * time.Microsecond)
	}
	l.Release(0) // active 3, still above limit 2: waiter must stay queued
	select {
	case <-waitErr:
		t.Fatal("waiter admitted while active above the shrunken limit")
	case <-time.After(10 * time.Millisecond):
	}
	l.Release(0) // active 2: at the limit, still no slot
	l.Release(0) // active 1 < 2: now the waiter fits
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("waiter failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never admitted after releases")
	}
}
