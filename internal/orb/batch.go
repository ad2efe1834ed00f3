package orb

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/wire"
)

// DefaultBatchBytes is the pending-byte threshold that flushes a write
// batch early (see ClientOptions.BatchBytes and ServerOptions.BatchBytes).
const DefaultBatchBytes = 32 << 10

// batcher coalesces complete frames bound for one connection into one
// buffer and writes them with a single syscall, either when the flush
// window elapses or when the pending bytes pass the threshold. Frames are
// already length-prefixed, so batching needs no wire-format change: the
// receiver's FrameReader splits the coalesced write back into frames.
// Clients batch request frames (ClientOptions.BatchWindow); servers batch
// reply and event frames (ServerOptions.BatchWindow), which saves a
// pipelining client's server one write syscall per reply.
//
// Lock order: mu is leaf-level for add/stop; the flush path holds the
// connection's write lock while draining the buffer under mu, never the
// reverse. A write failure is handed to fail *outside* both locks (fail
// stops the batch, which takes mu again).
type batcher struct {
	writeMu *sync.Mutex   // the connection's write lock
	conn    net.Conn      // written to by flush
	timeout time.Duration // write deadline per flush; 0 means none
	window  time.Duration
	limit   int
	// fail tears the connection down after a write error and returns the
	// error flush reports.
	fail func(error) error
	// stoppedErr is the error add returns once the batch is stopped.
	stoppedErr func() error
	// frames and flushes are the owner's batchedFrames/batchFlushes
	// counters.
	frames, flushes *atomic.Uint64

	mu      sync.Mutex
	buf     []byte
	timer   *time.Timer // armed while buf is non-empty
	stopped bool
}

// add appends fb's frame to the batch. The frame bytes are copied (fb goes
// back to its pool immediately after) and the flush timer is armed on the
// first frame of a batch. Crossing the byte threshold flushes inline on
// the caller.
func (b *batcher) add(fb *wire.FrameBuffer) error {
	frame, err := fb.Frame()
	if err != nil {
		return err
	}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return b.stoppedErr()
	}
	b.buf = append(b.buf, frame...)
	b.frames.Add(1)
	if len(b.buf) >= b.limit {
		b.mu.Unlock()
		return b.flush()
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.window, func() {
			_ = b.flush()
		})
	}
	b.mu.Unlock()
	return nil
}

// flush takes the pending batch and writes it as one syscall under the
// connection's write lock. Concurrent flushes serialize on the write lock;
// whichever runs first drains the buffer and the rest write nothing.
func (b *batcher) flush() error {
	b.writeMu.Lock()
	b.mu.Lock()
	buf := b.buf
	b.buf = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	stopped := b.stopped
	b.mu.Unlock()
	if stopped || len(buf) == 0 {
		b.writeMu.Unlock()
		return nil
	}
	if b.timeout > 0 {
		_ = b.conn.SetWriteDeadline(time.Now().Add(b.timeout))
	}
	_, err := b.conn.Write(buf)
	if b.timeout > 0 {
		_ = b.conn.SetWriteDeadline(time.Time{})
	}
	b.writeMu.Unlock()
	if err != nil {
		return b.fail(err)
	}
	b.flushes.Add(1)
	return nil
}

// stop retires the batch on connection death. Pending frames are dropped —
// their requesters observe the connection's death, which is the same
// outcome an unbatched write failure has.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.buf = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.mu.Unlock()
}
