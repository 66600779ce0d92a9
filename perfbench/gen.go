package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/perfbench/span"
)

// The generator is a closed loop of clients, each owning one keep-alive
// HTTP/1.1 connection it dials once. Requests and response parsing are
// hand-rolled over that connection: a request is one prebuilt byte slice
// (with the trace ID patched in place when tracing), a response is a
// status line, headers and a Content-Length body. That keeps the
// generator's own CPU per request small on cores it shares with the
// servers, and makes connection churn impossible to miss: every dial is
// counted.

// Trace IDs encode the phase (span.TimedBit), client and request
// sequence, so the benchmark can join client round trips to server spans
// and drop warm-up requests without a lookup table.
const (
	idClient  = 40
	idSeqMask = uint64(1)<<idClient - 1
)

// genConfig is one generator phase.
type genConfig struct {
	paths    []string  // request targets, e.g. /txn?class=update&k=8
	schedule [][]uint8 // per client: indexes into paths, cycled
	traced   bool      // send a trace ID with every request
	timed    bool      // mark trace IDs as belonging to the timed phase
}

// phaseResult is what one phase observed.
type phaseResult struct {
	elapsed   time.Duration
	attempted uint64
	committed uint64
	failed    uint64
	badBody   uint64         // 200 answers without "status":"committed"
	status    map[int]uint64 // non-200 answers by code
	transport uint64         // transport errors (each costs a redial)
	latNanos  []int64        // committed requests' round trips
	endNanos  []int64        // when each of latNanos completed, since the phase start
	ids       []uint64       // trace IDs of latNanos, when traced
}

// generator owns the clients' connections across phases.
type generator struct {
	addr    string
	clients []*client
	dials   atomic.Int64
}

type client struct {
	idx  int
	conn net.Conn
	br   *bufio.Reader
	body []byte
	seq  uint64
}

func newGenerator(addr string, clients int) (*generator, error) {
	g := &generator{addr: addr}
	for i := 0; i < clients; i++ {
		c := &client{idx: i, body: make([]byte, 4096)}
		if err := g.dial(c); err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *generator) dial(c *client) error {
	g.dials.Add(1)
	conn, err := net.Dial("tcp", g.addr)
	if err != nil {
		return fmt.Errorf("generator: dial %s: %w", g.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 4096)
	return nil
}

func (g *generator) close() {
	for _, c := range g.clients {
		if c.conn != nil {
			c.conn.Close()
		}
	}
}

// makeSchedules draws each client's request shapes from seed: 0 (the
// query path) with probability queryFrac, else 1 (the update path). The schedule is drawn before the
// run so the loop itself touches no random source.
func makeSchedules(seed int64, clients, n int, queryFrac float64) [][]uint8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint8, clients)
	for i := range out {
		out[i] = make([]uint8, n)
		for j := range out[i] {
			if rng.Float64() < queryFrac {
				out[i][j] = 0
			} else {
				out[i][j] = 1
			}
		}
	}
	return out
}

// run drives every client in a closed loop from start for d and returns
// what the phase observed.
func (g *generator) run(cfg genConfig, start time.Time, d time.Duration) phaseResult {
	outs := make([]phaseResult, len(g.clients))
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			outs[i] = g.loop(c, cfg, start, deadline)
		}(i, c)
	}
	wg.Wait()
	total := phaseResult{elapsed: time.Since(start), status: map[int]uint64{}}
	for _, r := range outs {
		total.attempted += r.attempted
		total.committed += r.committed
		total.failed += r.failed
		total.badBody += r.badBody
		total.transport += r.transport
		for code, n := range r.status {
			total.status[code] += n
		}
		total.latNanos = append(total.latNanos, r.latNanos...)
		total.endNanos = append(total.endNanos, r.endNanos...)
		total.ids = append(total.ids, r.ids...)
	}
	return total
}

// buildRequest renders the request bytes for one path; with a trace ID
// the header's 16 hex digits start at the returned offset.
func buildRequest(path string, traced bool) (req []byte, idOff int) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n", path)
	idOff = -1
	if traced {
		b.WriteString(reqtrace.Header + ": ")
		idOff = b.Len()
		b.WriteString("0000000000000000\r\n")
	}
	b.WriteString("\r\n")
	return b.Bytes(), idOff
}

var committedMark = []byte(`"status":"committed"`)

func (g *generator) loop(c *client, cfg genConfig, start, deadline time.Time) phaseResult {
	res := phaseResult{status: map[int]uint64{}, latNanos: make([]int64, 0, 1<<18), endNanos: make([]int64, 0, 1<<18)}
	reqs := make([][]byte, len(cfg.paths))
	idOffs := make([]int, len(cfg.paths))
	for i, path := range cfg.paths {
		reqs[i], idOffs[i] = buildRequest(path, cfg.traced)
	}
	sched := cfg.schedule[c.idx]
	phase := uint64(0)
	if cfg.timed {
		phase = span.TimedBit
	}
	for n := 0; ; n++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		i := sched[n%len(sched)]
		req := reqs[i]
		c.seq++
		id := phase | uint64(c.idx+1)<<idClient | c.seq&idSeqMask
		if cfg.traced {
			putHex(req[idOffs[i]:idOffs[i]+16], id)
		}
		res.attempted++
		code, body, err := c.roundTrip(req)
		lat := time.Since(now)
		switch {
		case err != nil:
			res.transport++
			res.failed++
			c.conn.Close()
			if g.dial(c) != nil {
				// The server is gone; nothing more to measure.
				return res
			}
		case code != 200:
			res.status[code]++
			res.failed++
		case !bytes.Contains(body, committedMark):
			res.badBody++
			res.failed++
		default:
			res.committed++
			res.latNanos = append(res.latNanos, int64(lat))
			res.endNanos = append(res.endNanos, int64(now.Sub(start)+lat))
			if cfg.traced {
				res.ids = append(res.ids, id)
			}
		}
	}
	return res
}

func putHex(dst []byte, id uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
}

var errMalformed = errors.New("generator: malformed response")

// roundTrip writes req and reads one response. The body slice is valid
// until the next call.
func (c *client) roundTrip(req []byte) (code int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errMalformed
	}
	code, ok := atoi(line[9:12])
	if !ok {
		return 0, nil, errMalformed
	}
	clen := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if len(h) > 15 && bytes.EqualFold(h[:15], []byte("content-length:")) {
			if clen, ok = atoi(bytes.TrimSpace(h[15:])); !ok {
				return 0, nil, errMalformed
			}
		}
	}
	if clen < 0 || clen > len(c.body) {
		// Chunked or oversized answers are not what /txn sends.
		return 0, nil, errMalformed
	}
	body = c.body[:clen]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	return code, body, nil
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
