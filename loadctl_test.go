package loadctl

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFacadeConstructors(t *testing.T) {
	if c := NewIS(DefaultISConfig()); c.Name() != "incremental-steps" {
		t.Fatal("IS constructor broken")
	}
	if c := NewPA(DefaultPAConfig()); c.Name() != "parabola-approximation" {
		t.Fatal("PA constructor broken")
	}
	if c := NewStatic(100); c.Bound() != 100 {
		t.Fatal("Static constructor broken")
	}
	if !math.IsInf(NoControl().Bound(), 1) {
		t.Fatal("NoControl must be unbounded")
	}
	tay := NewTayRule(8000, func(float64) float64 { return 8 }, DefaultBounds())
	if math.Abs(tay.Bound()-187.5) > 1e-9 {
		t.Fatalf("Tay bound = %v", tay.Bound())
	}
	if NewIyerRule(100, DefaultBounds()).Bound() != 100 {
		t.Fatal("Iyer constructor broken")
	}
}

func TestFacadeControllerInterface(t *testing.T) {
	// All exported controllers satisfy the Controller interface.
	for _, c := range []Controller{
		NewIS(DefaultISConfig()),
		NewPA(DefaultPAConfig()),
		NewStatic(10),
		NewTayRule(1000, func(float64) float64 { return 4 }, DefaultBounds()),
		NewIyerRule(50, DefaultBounds()),
	} {
		b := c.Update(Sample{Time: 1, Load: 10, Perf: 5})
		if math.IsNaN(b) || b < 0 {
			t.Fatalf("%s emitted bad bound %v", c.Name(), b)
		}
	}
}

func TestAdaptiveGateRequiresController(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptiveGate(AdaptiveGateConfig{})
}

func TestAdaptiveGateBasicFlow(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(2),
		Interval:   5 * time.Millisecond,
	})
	defer g.Close()
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if g.Active() != 2 {
		t.Fatalf("active = %d", g.Active())
	}
	if g.TryAcquire() {
		t.Fatal("third acquire should fail at limit 2")
	}
	g.Observe(true)
	g.Release()
	g.Release()
}

func TestAdaptiveGateAdaptsLimit(t *testing.T) {
	// A synthetic workload whose per-attempt success probability degrades
	// linearly with concurrency (a smooth conflict model: p = 1 − n/16),
	// giving a successes-per-second curve that peaks around n = 8. The PA
	// controller must keep the limit well below the 32 offered workers.
	paCfg := DefaultPAConfig()
	paCfg.Bounds = Bounds{Lo: 2, Hi: 64}
	paCfg.Initial = 12
	paCfg.Scale = 16
	paCfg.Dither = 2
	paCfg.MaxStep = 6
	paCfg.RecoveryStep = 3
	paCfg.MinObs = 4
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewPA(paCfg),
		Interval:   25 * time.Millisecond,
	})
	defer g.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var inside atomic.Int32
	var seed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := g.Acquire(ctx); err != nil {
					return
				}
				n := inside.Add(1)
				time.Sleep(time.Millisecond)
				// success probability 1 - n/16, sampled with a cheap
				// deterministic hash
				r := seed.Add(0x9e3779b97f4a7c15)
				r ^= r >> 33
				u := float64(r%1000) / 1000
				g.Observe(u < 1-float64(n)/16)
				inside.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if lim := g.Limit(); lim > 20 {
		t.Fatalf("limit %v did not adapt toward the productive region (~8)", lim)
	}
}

func TestAdaptiveGateContextCancel(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(0), // nothing ever admitted
		Interval:   time.Hour,    // loop effectively idle
	})
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err == nil {
		t.Fatal("expected context error at zero limit")
	}
}

func TestAdaptiveGateCloseIdempotentUse(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(4),
		Interval:   time.Millisecond,
	})
	time.Sleep(10 * time.Millisecond)
	g.Close()
	// Gate remains usable after Close with its last limit.
	if !g.TryAcquire() {
		t.Fatal("gate unusable after Close")
	}
	g.Release()
}

func TestAdaptiveGateThroughputSignal(t *testing.T) {
	// With a deterministic fake clock the sample the controller receives
	// must reflect the observed completions.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	rec := &recordingController{bound: 8}
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: rec,
		Interval:   50 * time.Millisecond,
		Now:        clock,
	})
	defer g.Close()
	for i := 0; i < 10; i++ {
		g.Observe(true)
	}
	g.Observe(false)
	mu.Lock()
	now = now.Add(50 * time.Millisecond)
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec.mu.Lock()
		n := len(rec.samples)
		rec.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never received a sample")
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	s := rec.samples[0]
	rec.mu.Unlock()
	if s.Completions != 10 {
		t.Fatalf("completions = %d, want 10", s.Completions)
	}
	if math.Abs(s.ConflictRate-0.1) > 1e-9 {
		t.Fatalf("conflict rate = %v, want 0.1", s.ConflictRate)
	}
}

type recordingController struct {
	mu      sync.Mutex
	bound   float64
	samples []Sample
}

func (r *recordingController) Update(s Sample) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	return r.bound
}
func (r *recordingController) Bound() float64 { return r.bound }
func (r *recordingController) Name() string   { return "recording" }

// steppedController hands each sample to the test and holds the loop
// inside Update until the test resumes it. While a tick is parked there
// it has already read the clock and the counters, so everything the test
// does before resuming lands wholly inside the next interval: interval
// boundaries become deterministic even though the loop runs on a real
// ticker.
type steppedController struct {
	bound   float64
	samples chan Sample
	resume  chan struct{}
	done    chan struct{}
}

func newSteppedController(bound float64) *steppedController {
	return &steppedController{
		bound:   bound,
		samples: make(chan Sample),
		resume:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (c *steppedController) Update(s Sample) float64 {
	select {
	case c.samples <- s:
		select {
		case <-c.resume:
		case <-c.done:
		}
	case <-c.done:
	}
	return c.bound
}
func (c *steppedController) Bound() float64 { return c.bound }
func (c *steppedController) Name() string   { return "stepped" }

// next resumes the parked tick (if any) and returns the following sample.
func (c *steppedController) next(t *testing.T, parked bool) Sample {
	t.Helper()
	if parked {
		c.resume <- struct{}{}
	}
	select {
	case s := <-c.samples:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("controller never received a sample")
		return Sample{}
	}
}

// fakeClock is a settable clock for AdaptiveGateConfig.Now.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func startStepped(t *testing.T, bound float64) (*AdaptiveGate, *steppedController, *fakeClock) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	ctrl := newSteppedController(bound)
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: ctrl,
		Interval:   5 * time.Millisecond,
		Now:        clock.Now,
	})
	t.Cleanup(func() {
		close(ctrl.done)
		g.Close()
	})
	return g, ctrl, clock
}

// TestAdaptiveGateZeroCommitConflictRate: an interval in which every
// attempt failed reports the documented aborts-per-attempt fallback of 1,
// the same as the server — not the raw failure count.
func TestAdaptiveGateZeroCommitConflictRate(t *testing.T) {
	g, ctrl, clock := startStepped(t, 4)
	ctrl.next(t, false) // park the loop at an interval boundary

	for i := 0; i < 3; i++ {
		g.Observe(false)
	}
	clock.advance(50 * time.Millisecond)
	s := ctrl.next(t, true)
	if s.Completions != 0 {
		t.Fatalf("completions = %d, want 0", s.Completions)
	}
	if s.ConflictRate != 1 {
		t.Fatalf("conflict rate with 0 commits and 3 aborts = %v, want 1", s.ConflictRate)
	}

	// An idle interval reports no conflicts at all.
	clock.advance(50 * time.Millisecond)
	if s := ctrl.next(t, true); s.ConflictRate != 0 {
		t.Fatalf("idle interval conflict rate = %v, want 0", s.ConflictRate)
	}
}

// TestAdaptiveGateLoadIsTimeAveragedSlots: Sample.Load is the number of
// held slots averaged over the interval's elapsed time, and an interval
// in which no time passed reports the slots held right now.
func TestAdaptiveGateLoadIsTimeAveragedSlots(t *testing.T) {
	g, ctrl, clock := startStepped(t, 4)
	ctrl.next(t, false)

	// Two slots for 10ms, then one for 30ms: (2·10 + 1·30)/40 = 1.25.
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("two slots should be free at limit 4")
	}
	clock.advance(10 * time.Millisecond)
	g.Release()
	clock.advance(30 * time.Millisecond)
	s := ctrl.next(t, true)
	if math.Abs(s.Load-1.25) > 1e-9 {
		t.Fatalf("load = %v, want 1.25", s.Load)
	}

	// One slot held throughout a whole interval averages to exactly 1.
	clock.advance(20 * time.Millisecond)
	if s := ctrl.next(t, true); math.Abs(s.Load-1) > 1e-9 {
		t.Fatalf("load with one slot held = %v, want 1", s.Load)
	}

	// A tick on a clock that has not moved still reports the one held
	// slot, not an empty gate.
	if s := ctrl.next(t, true); math.Abs(s.Load-1) > 1e-9 {
		t.Fatalf("load over a zero-length window = %v, want 1", s.Load)
	}
	g.Release()
}
