package orb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// batchConn is a net.Conn that records every Write and fails them once err
// is set. Reads block until Close, like an idle peer.
type batchConn struct {
	net.Conn // unused methods
	mu       sync.Mutex
	writes   [][]byte
	err      error
	closed   chan struct{}
	once     sync.Once
}

func newBatchConn() *batchConn { return &batchConn{closed: make(chan struct{})} }

func (c *batchConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *batchConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

func (c *batchConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *batchConn) SetWriteDeadline(time.Time) error { return nil }

func (c *batchConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// written returns the number of Write calls and the frames they carried.
func (c *batchConn) written() (writes, frames int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		for len(w) >= 4 {
			w = w[4+binary.BigEndian.Uint32(w):]
			frames++
		}
	}
	return len(c.writes), frames
}

// batchSide builds a batcher over conn exactly as one end of a connection
// does, and reports that end's counters and whether it tore the connection
// down.
type batchSide struct {
	name       string
	stoppedErr error
	open       func(t *testing.T, conn *batchConn, window time.Duration, limit int) (b *batcher, counters func() (frames, flushes uint64), dead func() bool)
}

var batchSides = []batchSide{
	{"client", ErrClosed, func(t *testing.T, conn *batchConn, window time.Duration, limit int) (*batcher, func() (uint64, uint64), func() bool) {
		c := NewClientOpts(ClientOptions{BatchWindow: window, BatchBytes: limit})
		cc := newClientConn(conn, c)
		t.Cleanup(func() { cc.close(ErrClosed) })
		return cc.batch,
			func() (uint64, uint64) { return c.stats.batchedFrames.Load(), c.stats.batchFlushes.Load() },
			func() bool { return cc.isDead() && conn.isClosed() }
	}},
	{"server", net.ErrClosed, func(t *testing.T, conn *batchConn, window time.Duration, limit int) (*batcher, func() (uint64, uint64), func() bool) {
		s, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0", BatchWindow: window, BatchBytes: limit})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		cw := &connWriter{conn: conn}
		cw.batch = s.newBatch(cw)
		return cw.batch,
			func() (uint64, uint64) { return s.stats.batchedFrames.Load(), s.stats.batchFlushes.Load() },
			conn.isClosed
	}},
}

// TestBatcher drives the one frame batcher as each end of a connection
// builds it: a flush at the byte limit and at the window, counters that
// add up to the frames and writes made, pending frames dropped on stop,
// and a failed write closing the connection.
func TestBatcher(t *testing.T) {
	const payload = 60
	const frameLen = 4 + payload
	const window = 100 * time.Millisecond
	add := func(b *batcher) error {
		fb := wire.GetFrameBuffer()
		fb.B = append(fb.B, make([]byte, payload)...)
		err := b.add(fb)
		wire.PutFrameBuffer(fb)
		return err
	}
	for _, side := range batchSides {
		t.Run(side.name, func(t *testing.T) {
			conn := newBatchConn()
			b, counters, dead := side.open(t, conn, window, 3*frameLen)
			wantWritten := func(writes, frames int) {
				t.Helper()
				if w, f := conn.written(); w != writes || f != frames {
					t.Fatalf("%d writes carrying %d frames, want %d carrying %d", w, f, writes, frames)
				}
			}

			// Byte limit: the third frame fills the batch and flushes inline.
			for i := 0; i < 2; i++ {
				if err := add(b); err != nil {
					t.Fatal(err)
				}
			}
			wantWritten(0, 0)
			if err := add(b); err != nil {
				t.Fatal(err)
			}
			wantWritten(1, 3)

			// Window: a lone frame goes out once the window elapses.
			start := time.Now()
			if err := add(b); err != nil {
				t.Fatal(err)
			}
			for w, _ := conn.written(); w < 2; w, _ = conn.written() {
				if time.Since(start) > 5*time.Second {
					t.Fatal("window flush never happened")
				}
				time.Sleep(time.Millisecond)
			}
			if waited := time.Since(start); waited < window*9/10 {
				t.Fatalf("window flush after %v, before the %v window", waited, window)
			}
			wantWritten(2, 4)
			if frames, flushes := counters(); frames != 4 || flushes != 2 {
				t.Fatalf("counters: %d frames in %d flushes, want 4 in 2", frames, flushes)
			}

			// Stop: the pending frame is dropped and add fails.
			if err := add(b); err != nil {
				t.Fatal(err)
			}
			b.stop()
			if err := add(b); !errors.Is(err, side.stoppedErr) {
				t.Fatalf("add after stop: %v, want %v", err, side.stoppedErr)
			}
			// A flush racing the stop (a timer that already fired) must
			// write nothing either.
			if err := b.flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * window)
			wantWritten(2, 4)
			if dead() {
				t.Fatal("stopping the batch closed the connection")
			}

			// Write failure: the connection is torn down and stays down.
			conn = newBatchConn()
			injected := errors.New("injected write failure")
			conn.err = injected
			b, counters, dead = side.open(t, conn, window, frameLen)
			if err := add(b); !errors.Is(err, injected) {
				t.Fatalf("failed flush: %v, want %v", err, injected)
			}
			if !dead() {
				t.Fatal("a failed batched write left the connection open")
			}
			if err := add(b); err == nil {
				t.Fatal("add on a connection whose batched write failed succeeded")
			}
			if frames, flushes := counters(); frames != 1 || flushes != 0 {
				t.Fatalf("counters after failure: %d frames in %d flushes, want 1 in 0", frames, flushes)
			}
		})
	}
}

func newBatchedEchoServer(t testing.TB, window time.Duration, bytes int) (*Server, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{
		Network: TCPNetwork{}, Address: "127.0.0.1:0",
		BatchWindow: window, BatchBytes: bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register("echo", "", Inline(ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	})))
	return srv, ref
}

// TestServerBatchedRepliesRoundTrip proves reply batching is invisible to
// clients: a pipelining client gets every reply, correctly correlated, and
// the server demonstrably coalesced them (fewer flushes than frames).
func TestServerBatchedRepliesRoundTrip(t *testing.T) {
	srv, ref := newBatchedEchoServer(t, 200*time.Microsecond, 2048)
	client := NewClientOpts(ClientOptions{
		Networks:    []Network{TCPNetwork{}},
		MaxInFlight: 64,
	})
	defer client.Close()
	ctx := context.Background()

	const n = 500
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		f, err := client.InvokeAsync(ctx, ref, "echo", wire.Int(i))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		vals, err := f.Result()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if len(vals) != 1 || int(vals[0].Num()) != i {
			t.Fatalf("reply %d: got %v", i, vals)
		}
	}
	st := srv.Stats()
	if st.BatchedFrames == 0 {
		t.Fatal("no reply went through the batch")
	}
	if st.BatchFlushes == 0 || st.BatchFlushes >= st.BatchedFrames {
		t.Fatalf("no coalescing: %d flushes for %d frames", st.BatchFlushes, st.BatchedFrames)
	}
}

// TestServerBatchedSequential proves the window flush keeps strict
// request/response traffic working (each reply waits out at most one
// window), and that concurrent connections batch independently.
func TestServerBatchedSequential(t *testing.T) {
	_, ref := newBatchedEchoServer(t, 100*time.Microsecond, DefaultBatchBytes)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(TCPNetwork{})
			defer client.Close()
			for i := 0; i < 50; i++ {
				vals, err := client.Invoke(ctx, ref, "echo", wire.Int(i))
				if err != nil {
					t.Error(err)
					return
				}
				if len(vals) != 1 || int(vals[0].Num()) != i {
					t.Errorf("got %v, want [%d]", vals, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkE13PipelinedServerBatchedTCP is E13's pipelined window with
// reply batching on BOTH sides: the client coalesces request frames, the
// server coalesces the replies. Compare against
// BenchmarkE13PipelinedWindow64TCP (client-only batching) for the
// server-side delta. See EXPERIMENTS.md E13 and BENCH_7.json.
func BenchmarkE13PipelinedServerBatchedTCP(b *testing.B) {
	_, ref := newBatchedEchoServer(b, 100*time.Microsecond, 1024)
	benchPipelinedWindow(b, ref)
}
