package gate

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The TestLive* tests pin the live gate in its single-class form — the
// shape the public AdaptiveGate runs on — where a Multi must behave as a
// plain FCFS semaphore with an adjustable limit and exact counters.

// single returns a one-class Multi with the given pool limit; its only
// class is index 0.
func single(t *testing.T, limit float64) *Multi {
	return mustMulti(t, []ClassSpec{{Name: "default"}}, limit)
}

func TestLiveAcquireRelease(t *testing.T) {
	l := single(t, 2)
	ctx := context.Background()
	if err := l.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if l.Active() != 2 {
		t.Fatalf("active = %d", l.Active())
	}
	if l.TryAcquire(0) {
		t.Fatal("TryAcquire should fail at the limit")
	}
	l.Release(0)
	if !l.TryAcquire(0) {
		t.Fatal("TryAcquire should succeed after release")
	}
	l.Release(0)
	l.Release(0)
}

func TestLiveBlocksAtLimit(t *testing.T) {
	l := single(t, 1)
	ctx := context.Background()
	if err := l.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	go func() {
		if err := l.Acquire(ctx, 0); err != nil {
			t.Error(err)
			return
		}
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("second acquire should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release(0)
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("release did not wake the waiter")
	}
	l.Release(0)
}

func TestLiveContextCancel(t *testing.T) {
	l := single(t, 1)
	if err := l.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx, 0); err == nil {
		t.Fatal("expected context error")
	}
	if l.Queued() != 0 {
		t.Fatalf("cancelled waiter still queued: %d", l.Queued())
	}
	l.Release(0)
	if l.AggregateStats().Timeouts != 1 {
		t.Fatalf("timeouts = %d", l.AggregateStats().Timeouts)
	}
}

func TestLiveSetLimitWakesWaiters(t *testing.T) {
	l := single(t, 0)
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background(), 0); err == nil {
				admitted.Add(1)
			}
		}()
	}
	// Wait until all are queued.
	deadline := time.Now().Add(time.Second)
	for l.Queued() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d queued", l.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	l.SetPoolLimit(3)
	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()
	deadline = time.Now().Add(time.Second)
	for admitted.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want 3", admitted.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if l.Active() != 3 || l.Queued() != 2 {
		t.Fatalf("active=%d queued=%d, want 3/2", l.Active(), l.Queued())
	}
	l.SetPoolLimit(10)
	<-wgWait
	if admitted.Load() != 5 {
		t.Fatalf("admitted = %d, want 5", admitted.Load())
	}
}

func TestLiveNeverExceedsLimit(t *testing.T) {
	// Hammer the gate from many goroutines and assert the concurrent
	// holder count never exceeds the (changing) limit's high-water mark.
	l := single(t, 4)
	var inside atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.Acquire(context.Background(), 0); err != nil {
					return
				}
				v := inside.Add(1)
				for {
					m := maxSeen.Load()
					if v <= m || maxSeen.CompareAndSwap(m, v) {
						break
					}
				}
				inside.Add(-1)
				l.Release(0)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	l.SetPoolLimit(8)
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if maxSeen.Load() > 8 {
		t.Fatalf("max concurrent holders %d exceeded limit 8", maxSeen.Load())
	}
}

func TestLiveReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	single(t, 1).Release(0)
}

func TestLiveInfiniteLimit(t *testing.T) {
	l := single(t, math.Inf(1))
	for i := 0; i < 100; i++ {
		if !l.TryAcquire(0) {
			t.Fatal("infinite gate refused admission")
		}
	}
}

func TestLiveFCFS(t *testing.T) {
	l := single(t, 0)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger arrival so queue order is deterministic.
			time.Sleep(time.Duration(i*10) * time.Millisecond)
			if err := l.Acquire(context.Background(), 0); err != nil {
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Release(0)
		}()
	}
	// Let everyone queue up, then open one slot at a time.
	deadline := time.Now().Add(2 * time.Second)
	for l.Queued() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d", l.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	l.SetPoolLimit(1)
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("admission order %v not FCFS", order)
		}
	}
}
