package loadctl

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// AdaptiveGateConfig configures a live adaptive admission gate.
type AdaptiveGateConfig struct {
	// Controller re-estimates the concurrency limit; required.
	Controller Controller
	// Interval is the measurement interval Δt (default 1s). Per §5 it
	// should span enough completions to filter noise — prefer hundreds of
	// observations per interval over tens.
	Interval time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// AdaptiveGate throttles a live Go workload at an adaptive concurrency
// limit: the §4.3 gate with goroutines as the paper's concurrent
// transactions. Acquire blocks while the active count is at the limit;
// Observe reports completions; a background loop periodically feeds the
// measured (load, throughput) pair to the Controller and installs the new
// limit.
//
// It is the server's machinery with one class: admission through a
// single-class gate.Multi, sensing through one telemetry.Counters group
// closed by telemetry.CloseInterval, and the interval loop a ctl.Loop.
type AdaptiveGate struct {
	cfg   AdaptiveGateConfig
	gate  *gate.Multi
	tel   *telemetry.Counters
	seq   atomic.Uint64 // selects the counter stripe per call
	start time.Time

	// Interval state, touched only by the loop goroutine.
	lastTick time.Time
	prev     telemetry.Accum

	loop *ctl.Loop
}

// Counter schema of the gate's single telemetry group. Each event count
// precedes its timestamp sum, so writers add the timestamp first (see
// telemetry.Counters for the ordering protocol).
const (
	gCommits = iota
	gAborts
	gEntries
	gEntryNanos
	gExits
	gExitNanos
)

// NewAdaptiveGate starts the measurement loop and returns the gate. Close
// must be called to stop the loop.
func NewAdaptiveGate(cfg AdaptiveGateConfig) *AdaptiveGate {
	if cfg.Controller == nil {
		panic("loadctl: AdaptiveGate needs a Controller")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m, err := gate.NewMulti([]gate.ClassSpec{{Name: "default"}}, cfg.Controller.Bound())
	if err != nil {
		panic("loadctl: " + err.Error())
	}
	g := &AdaptiveGate{
		cfg:  cfg,
		gate: m,
		tel:  telemetry.NewCounters(1, "commits", "aborts", "entries", "entry_nanos", "exits", "exit_nanos"),
	}
	g.start = cfg.Now()
	g.lastTick = g.start
	g.loop = ctl.Start(ctl.Config{Interval: cfg.Interval, Tick: g.closeInterval})
	return g
}

// Acquire blocks until a slot is free or ctx is done (FCFS).
func (g *AdaptiveGate) Acquire(ctx context.Context) error {
	if err := g.gate.Acquire(ctx, 0); err != nil {
		return err
	}
	g.note(gEntries, gEntryNanos)
	return nil
}

// TryAcquire takes a slot without blocking; it reports success.
func (g *AdaptiveGate) TryAcquire() bool {
	if !g.gate.TryAcquire(0) {
		return false
	}
	g.note(gEntries, gEntryNanos)
	return true
}

// Release frees a slot taken by Acquire/TryAcquire.
func (g *AdaptiveGate) Release() {
	g.gate.Release(0)
	g.note(gExits, gExitNanos)
}

// Observe reports the outcome of one unit of work: success feeds the
// throughput signal, failure (e.g. an OCC conflict abort) the conflict
// rate.
func (g *AdaptiveGate) Observe(success bool) {
	i := gAborts
	if success {
		i = gCommits
	}
	g.tel.Cell(0, g.seq.Add(1)).Inc(i)
}

// note records one admission entry or exit for the load integrator:
// timestamp first, count second.
func (g *AdaptiveGate) note(count, nanos int) {
	cell := g.tel.Cell(0, g.seq.Add(1))
	cell.Add(nanos, uint64(g.cfg.Now().Sub(g.start).Nanoseconds()))
	cell.Inc(count)
}

// Limit returns the current concurrency limit.
func (g *AdaptiveGate) Limit() float64 { return g.gate.Limit() }

// Active returns the number of held slots.
func (g *AdaptiveGate) Active() int { return g.gate.Active() }

// Queued returns the number of blocked acquirers.
func (g *AdaptiveGate) Queued() int { return g.gate.Queued() }

// GateStats is a snapshot of admission counters: total arrivals, admitted,
// non-blocking rejections (TryAcquire at a full gate), context-cancelled
// waits, and the high-water mark of the wait queue.
type GateStats = gate.Counts

// Stats returns a snapshot of the gate's admission counters.
func (g *AdaptiveGate) Stats() GateStats { return g.gate.AggregateStats() }

// Close stops the measurement loop. The gate itself remains usable with
// its last limit.
func (g *AdaptiveGate) Close() { g.loop.Close() }

// closeInterval is the loop's tick. It reads cfg.Now rather than the
// loop's wall clock so a fake clock drives the whole interval math, and
// divides by the actually elapsed window: a ticker firing late under CPU
// saturation would otherwise inflate load and throughput exactly when
// accurate samples matter most.
func (g *AdaptiveGate) closeInterval(time.Time) []ctl.Decision {
	now := g.cfg.Now()
	dt := now.Sub(g.lastTick).Nanoseconds()
	g.lastTick = now
	if dt <= 0 {
		dt = g.cfg.Interval.Nanoseconds()
	}
	f := g.tel.Fold(0)
	cur := telemetry.Accum{
		Commits:    f[gCommits],
		Aborts:     f[gAborts],
		Entries:    f[gEntries],
		EntryNanos: f[gEntryNanos],
		Exits:      f[gExits],
		ExitNanos:  f[gExitNanos],
	}
	since := now.Sub(g.start)
	_, sample := telemetry.CloseInterval(since.Seconds(), cur, g.prev, since.Nanoseconds(), dt)
	g.prev = cur
	g.gate.SetPoolLimit(g.cfg.Controller.Update(sample))
	return nil
}
