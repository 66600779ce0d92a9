// Package span is the benchmark's in-memory span store. The traced
// harness records one Span at each layer boundary a request crosses,
// keeps them in a buffer sized up front, and writes them out once when it
// exits; the benchmark reads them back to attribute time to layers.
package span

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Name says which layer boundary a span covers.
type Name uint8

const (
	// Handler is one ServeHTTP call on /txn (the server or proxy tier).
	Handler Name = iota + 1
	// Exec is one Engine.Exec attempt; its parent is the Handler span.
	Exec
	// CtlUpdate is one Controller.Update call; Val is the bound it returned.
	CtlUpdate
	// Upstream is one RoundTrip on the proxy's outbound transport; its
	// parent is the proxy's Handler span.
	Upstream
	// Dial is one outbound connection the proxy's transport dialled.
	Dial
)

// TimedBit marks the trace IDs of requests the benchmark times; warm-up
// and set-up requests lack it.
const TimedBit = uint64(1) << 62

// SampleEvery is the share of timed requests whose spans are kept: one in
// SampleEvery, by trace ID, so a traced pass of any length fits in memory.
const SampleEvery = 4

// Sampled reports whether spans are kept for the request with this trace
// ID.
func Sampled(trace uint64) bool { return trace&TimedBit != 0 && trace%SampleEvery == 0 }

// Flag bits of Span.Flags.
const (
	// FlagUpdate marks an Exec span of a spec that writes (TxnSpec.Update).
	FlagUpdate uint8 = 1 << iota
	// FlagOK marks a committed Exec attempt or a successful RoundTrip.
	FlagOK
)

// Span is one recorded interval. Times are nanoseconds since the
// recorder started; spans of one process share that clock. Trace is the
// X-Loadctl-Trace ID the request carried (0 when none), which joins spans
// across processes.
type Span struct {
	Trace  uint64
	ID     uint32
	Parent uint32
	Name   Name
	Flags  uint8
	Start  int64
	End    int64
	Val    float64
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory. Add is safe for concurrent use; once
// it holds max spans further ones are counted as dropped.
type Recorder struct {
	t0     time.Time
	max    int
	nextID atomic.Uint32

	mu      sync.Mutex
	spans   []Span
	dropped uint64
}

// NewRecorder returns a recorder holding at most max spans.
func NewRecorder(max int) *Recorder {
	return &Recorder{t0: time.Now(), max: max, spans: make([]Span, 0, 1<<16)}
}

// Now is the recorder's clock: nanoseconds since it started.
func (r *Recorder) Now() int64 { return int64(time.Since(r.t0)) }

// NewID returns a process-unique nonzero span ID.
func (r *Recorder) NewID() uint32 { return r.nextID.Add(1) }

// Add records s.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	if len(r.spans) < r.max {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// header precedes the spans in a span file.
type header struct {
	Count   uint64
	Dropped uint64
}

// WriteFile writes every recorded span to path.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := binary.Write(w, binary.LittleEndian, header{uint64(len(r.spans)), r.dropped}); err != nil {
		f.Close()
		return fmt.Errorf("span: write %s: %w", path, err)
	}
	if err := binary.Write(w, binary.LittleEndian, r.spans); err != nil {
		f.Close()
		return fmt.Errorf("span: write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span: write %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile reads a span file written by WriteFile.
func ReadFile(path string) (spans []Span, dropped uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	var h header
	if err := binary.Read(rd, binary.LittleEndian, &h); err != nil {
		return nil, 0, fmt.Errorf("span: read %s: %w", path, err)
	}
	spans = make([]Span, h.Count)
	if err := binary.Read(rd, binary.LittleEndian, spans); err != nil {
		return nil, 0, fmt.Errorf("span: read %s: %w", path, err)
	}
	return spans, h.Dropped, nil
}
