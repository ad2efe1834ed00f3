package orb

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/idl"
	"autoadapt/internal/metrics"
	"autoadapt/internal/wire"
)

// Error codes carried in error replies. They mirror the CORBA system
// exceptions the paper's runtime would raise.
const (
	CodeNoSuchObject = "NO_SUCH_OBJECT"
	CodeBadOperation = "BAD_OPERATION"
	CodeBadParam     = "BAD_PARAM"
	CodeInternal     = "INTERNAL"
	CodeApp          = "APP_ERROR"
	// CodeDeadline is returned when a request arrives with its wire
	// deadline already expired; the server aborts before dispatch.
	CodeDeadline = "DEADLINE_EXCEEDED"
	// CodeOverloaded is returned when the server sheds a request at
	// admission because its dispatch pool and queue are saturated. Clients
	// surface it as ErrOverloaded: retryable with backoff, breaker-neutral.
	CodeOverloaded = wire.StatusOverloaded
)

// Admission-control defaults. A server dispatches at most
// MaxConcurrent requests at once across all connections (plus one resident
// worker per connection and the inline fast path); up to MaxQueue more wait
// in the dispatch queue, and beyond that two-way requests are shed with
// CodeOverloaded replies and oneways are dropped.
const (
	DefaultMaxConcurrent = 64
	DefaultMaxQueue      = 1024
)

// Servant is the dynamic skeleton interface: every object exposes a single
// dispatch routine (the paper's DIR). The ORB delivers the operation name
// and dynamically typed arguments; the servant returns result values or an
// error.
type Servant interface {
	Invoke(op string, args []wire.Value) ([]wire.Value, error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, args []wire.Value) ([]wire.Value, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	return f(op, args)
}

// FastServant is an optional Servant extension. A servant that implements
// it (reporting true) is dispatched *inline* on its connection's read
// goroutine: no handoff, no goroutine, the cheapest possible path. Only
// servants that return quickly and never block may opt in — an inline
// servant stalls every other request on its connection while it runs, and
// one that blocks forever wedges the connection.
type FastServant interface {
	Servant
	FastDispatch() bool
}

type inlineServant struct{ Servant }

func (inlineServant) FastDispatch() bool { return true }

// Inline marks sv as safe for inline dispatch (see FastServant).
func Inline(sv Servant) Servant { return inlineServant{sv} }

// AppError is an application-level error raised by a servant; it crosses
// the wire with CodeApp and is reconstructed on the client as a RemoteError
// with the same message.
type AppError struct{ Msg string }

// Error implements error.
func (e *AppError) Error() string { return e.Msg }

// Appf builds an AppError.
func Appf(format string, args ...any) error {
	return &AppError{Msg: fmt.Sprintf(format, args...)}
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Network is the transport to listen on. Required.
	Network Network
	// Address to listen on ("127.0.0.1:0" for TCP, any name for inproc).
	// Required.
	Address string
	// Repo, if set, enables dynamic type checking: every inbound call is
	// validated against the servant's declared interface before dispatch.
	Repo *idl.Repository
	// Logger receives connection-level errors. Nil discards them.
	Logger *log.Logger
	// BatchWindow, when positive, coalesces reply and event frames per
	// connection for up to this long (or until BatchBytes accumulate) and
	// writes them with one syscall — the server-side mirror of
	// ClientOptions.BatchWindow. Replies gain up to BatchWindow of
	// latency, so this suits pipelined/async traffic, not ping-pong RPC.
	BatchWindow time.Duration
	// BatchBytes is the pending-byte threshold that flushes a reply batch
	// early. 0 means DefaultBatchBytes. Ignored unless BatchWindow > 0.
	BatchBytes int
	// MaxConcurrent caps the server-wide dispatch pool: the number of
	// non-inline requests executing at once beyond each connection's
	// resident worker. 0 means DefaultMaxConcurrent; negative restores the
	// pre-admission-control behavior of spilling an unbounded goroutine per
	// pipelined request (benchmark baselines only — a hostile or merely
	// bursty client can then drive goroutine count without limit).
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a pool
	// worker. When the queue is full, two-way requests are shed with a
	// CodeOverloaded error reply and oneways are dropped. 0 means
	// DefaultMaxQueue. Ignored when MaxConcurrent is negative.
	MaxQueue int
	// Metrics, when non-nil, instruments dispatch: a latency histogram,
	// per-reply-code counters, and the ServerStats counters as gauges
	// (see metrics.go). Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// ServerStats is a snapshot of a server's counters.
type ServerStats struct {
	// BatchedFrames counts reply/event frames that went through a write
	// batch rather than straight to the socket.
	BatchedFrames uint64
	// BatchFlushes counts coalesced writes (syscalls) for those frames.
	BatchFlushes uint64
	// ShedRequests counts requests refused at admission with
	// CodeOverloaded (or silently dropped, for oneways) because the
	// dispatch pool and queue were both full.
	ShedRequests uint64
	// ExpiredShed counts requests dropped at admission because their wire
	// deadline had already passed when they were read off the connection —
	// the caller has given up, so dispatching would be pure waste.
	ExpiredShed uint64
	// SpilledRequests counts requests that overflowed their connection's
	// resident worker into the shared dispatch pool (the bounded successor
	// of the old per-request goroutine spill).
	SpilledRequests uint64
	// QueueDepth is the number of admitted requests currently waiting for
	// a pool worker (a gauge, not a counter).
	QueueDepth int
}

type serverStats struct {
	batchedFrames, batchFlushes                atomic.Uint64
	shedRequests, expiredShed, spilledRequests atomic.Uint64
}

// Server is an object adapter: it owns a listener, a table of servants
// keyed by object key, and the connections currently being served.
type Server struct {
	opts     ServerOptions
	listener Listener
	endpoint string

	mu       sync.RWMutex
	servants map[string]*servantEntry
	closed   bool

	conns   map[net.Conn]struct{}
	connsMu sync.Mutex

	stats serverStats
	sm    *serverMetrics // nil = instrumentation disabled

	// Admission control: queue feeds a pool of at most maxConcurrent
	// workers, spawned lazily as demand appears. queue is nil when
	// MaxConcurrent is negative (legacy unbounded spill).
	queue         chan connJob
	maxConcurrent int
	poolWorkers   atomic.Int64
	poolWG        sync.WaitGroup

	wg sync.WaitGroup
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		BatchedFrames:   s.stats.batchedFrames.Load(),
		BatchFlushes:    s.stats.batchFlushes.Load(),
		ShedRequests:    s.stats.shedRequests.Load(),
		ExpiredShed:     s.stats.expiredShed.Load(),
		SpilledRequests: s.stats.spilledRequests.Load(),
	}
	if s.queue != nil {
		st.QueueDepth = len(s.queue)
	}
	return st
}

type servantEntry struct {
	servant Servant
	iface   string // interface name for type checking ("" = unchecked)
	inline  bool   // dispatch on the read goroutine (see FastServant)
}

// NewServer starts a server listening on the configured address. The
// returned server is running; call Close to stop it.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Network == nil {
		return nil, errors.New("orb: ServerOptions.Network is required")
	}
	l, err := opts.Network.Listen(opts.Address)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		listener: l,
		endpoint: JoinEndpoint(opts.Network.Name(), l.Addr()),
		servants: make(map[string]*servantEntry),
		conns:    make(map[net.Conn]struct{}),
	}
	if opts.MaxConcurrent >= 0 {
		s.maxConcurrent = opts.MaxConcurrent
		if s.maxConcurrent == 0 {
			s.maxConcurrent = DefaultMaxConcurrent
		}
		maxQueue := opts.MaxQueue
		if maxQueue == 0 {
			maxQueue = DefaultMaxQueue
		}
		s.queue = make(chan connJob, maxQueue)
	}
	s.sm = newServerMetrics(opts.Metrics, s)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Endpoint returns the server's endpoint string ("tcp|host:port").
func (s *Server) Endpoint() string { return s.endpoint }

// Register installs a servant under key, declaring it implements iface
// (may be "" to skip type checking even when a repository is configured).
// Re-registering a key replaces the servant.
func (s *Server) Register(key, iface string, sv Servant) wire.ObjRef {
	inline := false
	if fs, ok := sv.(FastServant); ok {
		inline = fs.FastDispatch()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[key] = &servantEntry{servant: sv, iface: iface, inline: inline}
	return wire.ObjRef{Endpoint: s.endpoint, Key: key}
}

// Unregister removes a servant.
func (s *Server) Unregister(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.servants, key)
}

// RefFor returns the object reference for key (whether or not a servant is
// currently registered under it).
func (s *Server) RefFor(key string) wire.ObjRef {
	return wire.ObjRef{Endpoint: s.endpoint, Key: key}
}

// Lookup returns the servant registered under key, if any. Local callers
// (e.g. the in-process fast path) use this to bypass the network.
func (s *Server) Lookup(key string) (Servant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.servants[key]
	if !ok {
		return nil, false
	}
	return e.servant, true
}

// Close stops accepting, closes every live connection, and waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	err := s.listener.Close()
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	// All read loops are done, so nothing can enqueue or spawn workers
	// anymore; drain the pool and wait for it.
	if s.queue != nil {
		close(s.queue)
		s.poolWG.Wait()
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connJob is one decoded request bound for the dispatch path. It carries
// its connection's writer so pool workers can answer on behalf of any
// connection.
type connJob struct {
	entry  *servantEntry // pre-resolved servant (nil → NO_SUCH_OBJECT)
	req    *wire.Request
	cw     *connWriter
	oneway bool
}

// maybeSpawnWorker adds one pool worker unless the pool is already at
// maxConcurrent. Called after each enqueue, so every queued job is
// eventually picked up: either an existing worker drains it before
// retiring, or the spawn here (which the enqueuer issues *after* the job
// is visible in the queue) provides the worker.
func (s *Server) maybeSpawnWorker() {
	for {
		n := s.poolWorkers.Load()
		if int(n) >= s.maxConcurrent {
			return
		}
		if s.poolWorkers.CompareAndSwap(n, n+1) {
			s.poolWG.Add(1)
			go s.poolWorker()
			return
		}
	}
}

// poolWorker drains the dispatch queue and retires when it runs dry, so an
// idle server parks no goroutines. Retirement must not strand a job that
// raced in behind the empty check: the worker decrements its slot FIRST
// and then re-checks the queue. A job enqueued before the re-check is
// drained here; one enqueued after it is seen by its enqueuer's
// maybeSpawnWorker with the already-decremented count, which spawns a
// replacement. Either way someone owns the job.
func (s *Server) poolWorker() {
	defer s.poolWG.Done()
	for {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.handle(j.cw, j)
		default:
			s.poolWorkers.Add(-1)
			select {
			case j, ok := <-s.queue:
				if !ok {
					return
				}
				s.poolWorkers.Add(1)
				s.handle(j.cw, j)
			default:
				return
			}
		}
	}
}

// admit routes one non-inline request past its connection's busy resident
// worker: into the bounded dispatch pool, or — when pool and queue are
// saturated — sheds it with a CodeOverloaded reply (oneways are dropped).
// With MaxConcurrent < 0 the legacy unbounded spill applies and reqWG
// tracks the goroutine.
func (s *Server) admit(cw *connWriter, j connJob, reqWG *sync.WaitGroup) {
	if s.queue == nil {
		s.stats.spilledRequests.Add(1)
		reqWG.Add(1)
		go func(j connJob) {
			defer reqWG.Done()
			s.handle(cw, j)
		}(j)
		return
	}
	select {
	case s.queue <- j:
		s.stats.spilledRequests.Add(1)
		s.maybeSpawnWorker()
	default:
		s.stats.shedRequests.Add(1)
		if j.oneway {
			return
		}
		rep := &wire.Reply{ID: j.req.ID, ErrCode: CodeOverloaded,
			Err: fmt.Sprintf("server overloaded: dispatch queue full, %q shed at admission", j.req.Operation)}
		if err := s.writeReply(cw, rep, time.Now().Add(DefaultWriteTimeout)); err != nil {
			s.logf("orb: write overload reply: %v", err)
		}
	}
}

// connWriter serializes frame writes on one server connection. Reply
// writes and event pushes share it, so a pushed event can never interleave
// bytes with a reply. With batching enabled (ServerOptions.BatchWindow)
// frames detour through the connection's batcher instead.
type connWriter struct {
	conn  net.Conn
	mu    sync.Mutex
	batch *batcher // non-nil when reply batching is enabled
}

// writeFrame writes one framed buffer under the connection write lock,
// bounded by deadline when non-zero (set and cleared inside the lock so
// concurrent writers' deadlines never clobber each other). With batching
// enabled the frame is queued instead and the batch's flush applies its
// own write deadline.
func (w *connWriter) writeFrame(fb *wire.FrameBuffer, deadline time.Time) error {
	if w.batch != nil {
		return w.batch.add(fb)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !deadline.IsZero() {
		_ = w.conn.SetWriteDeadline(deadline)
		defer func() { _ = w.conn.SetWriteDeadline(time.Time{}) }()
	}
	return fb.WriteFrame(w.conn)
}

// eventSink is the server side of one push stream: the servant's Push
// calls encode Event frames onto the subscriber's connection. closed flips
// when the subscriber unsubscribes or its connection dies, making further
// pushes fail fast with ErrSubscriptionClosed.
type eventSink struct {
	w      *connWriter
	subID  uint64
	closed atomic.Bool
}

// Push implements EventSink. A write failure closes the connection (the
// stream position is undefined mid-frame), which tears down every
// subscription on it.
func (es *eventSink) Push(values ...wire.Value) error {
	if es.closed.Load() {
		return ErrSubscriptionClosed
	}
	fb := wire.GetFrameBuffer()
	out, err := wire.AppendEvent(fb.B, &wire.Event{SubID: es.subID, Values: values})
	if err != nil {
		wire.PutFrameBuffer(fb)
		return err
	}
	fb.B = out
	err = es.w.writeFrame(fb, time.Now().Add(DefaultWriteTimeout))
	wire.PutFrameBuffer(fb)
	if err != nil {
		_ = es.w.conn.Close()
		return err
	}
	return nil
}

// newBatch returns cw's reply/event-frame batcher. The stream position is
// undefined after a failed batched write, so a failure drops the
// connection; the read loop observes the close and tears the connection
// down, the same outcome an unbatched write failure has.
func (s *Server) newBatch(cw *connWriter) *batcher {
	limit := s.opts.BatchBytes
	if limit <= 0 {
		limit = DefaultBatchBytes
	}
	return &batcher{
		writeMu: &cw.mu, conn: cw.conn, timeout: DefaultWriteTimeout,
		window: s.opts.BatchWindow, limit: limit,
		frames: &s.stats.batchedFrames, flushes: &s.stats.batchFlushes,
		stoppedErr: func() error { return net.ErrClosed },
		fail: func(err error) error {
			cw.batch.stop()
			_ = cw.conn.Close()
			return fmt.Errorf("orb: batched reply write failed: %w", err)
		},
	}
}

// serverSub pairs a stream's sink with the servant's cancel.
type serverSub struct {
	sink   *eventSink
	cancel func()
}

// serveConn reads frames off one connection and dispatches them. The hot
// path avoids a goroutine per request: servants marked inline (FastServant)
// run directly on the read goroutine; everything else is handed to a single
// resident worker goroutine, and only when that worker is already busy —
// i.e. the client is genuinely pipelining concurrent requests, or a servant
// is slow/blocking — does a request overflow into the server-wide bounded
// dispatch pool (see admit). Concurrent invocations on one multiplexed
// connection still interleave, but the server's goroutine count is capped
// at conns + MaxConcurrent instead of growing with the offered load;
// beyond the pool's queue, requests are shed with CodeOverloaded.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
	}()
	cw := &connWriter{conn: conn}
	if s.opts.BatchWindow > 0 {
		cw.batch = s.newBatch(cw)
		defer cw.batch.stop()
	}
	var reqWG sync.WaitGroup
	var worker chan connJob // resident worker, started on first demand
	// subs holds this connection's push streams. Only the read goroutine
	// (including this teardown) touches the map, so it needs no lock.
	subs := make(map[uint64]*serverSub)
	defer func() {
		if worker != nil {
			close(worker)
		}
		reqWG.Wait()
		// Sinks first (pushes fail fast), then servant cancels.
		for _, ss := range subs {
			ss.sink.closed.Store(true)
		}
		for _, ss := range subs {
			if ss.cancel != nil {
				ss.cancel()
			}
		}
	}()
	fr := wire.NewFrameReader(conn)
	for {
		payload, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				s.logf("orb: read frame: %v", err)
			}
			return
		}
		msg, err := wire.DecodeMessage(payload)
		if err != nil {
			s.logf("orb: decode message: %v", err)
			return // protocol error: drop the connection
		}
		switch msg.Type {
		case wire.MsgRequest, wire.MsgOneway:
			job := connJob{
				entry:  s.servantEntryFor(msg.Req.ObjectKey),
				req:    msg.Req,
				cw:     cw,
				oneway: msg.Type == wire.MsgOneway,
			}
			// Deadline-aware shedding: a request whose wire deadline has
			// already passed gets its DEADLINE_EXCEEDED answer here, before
			// consuming a worker — under overload the backlog is exactly
			// what made it late, so dispatching it would compound the
			// overload with work nobody is waiting for.
			if d := job.req.Deadline; d != 0 && time.Now().UnixNano() > d {
				s.stats.expiredShed.Add(1)
				if !job.oneway {
					rep := &wire.Reply{ID: job.req.ID, ErrCode: CodeDeadline,
						Err: fmt.Sprintf("deadline expired before dispatch of %q", job.req.Operation)}
					if err := s.writeReply(cw, rep, time.Now().Add(time.Second)); err != nil {
						s.logf("orb: write expired-shed reply: %v", err)
					}
				}
				continue
			}
			if job.entry != nil && job.entry.inline {
				s.handle(cw, job)
				continue
			}
			if worker == nil {
				worker = make(chan connJob)
				reqWG.Add(1)
				go func(jobs <-chan connJob) {
					defer reqWG.Done()
					for j := range jobs {
						s.handle(cw, j)
					}
				}(worker)
			}
			select {
			case worker <- job:
			default: // worker busy: the client is pipelining; overflow into
				// the bounded dispatch pool (or shed).
				s.admit(cw, job, &reqWG)
			}
		case wire.MsgSubscribe:
			// Handled inline: registering a sink must be quick (EventSource
			// contract), and serial handling makes duplicate-id checks
			// race-free without a lock.
			s.handleSubscribe(cw, msg.Sub, subs)
		case wire.MsgUnsubscribe:
			if ss, ok := subs[msg.UnsubID]; ok {
				delete(subs, msg.UnsubID)
				ss.sink.closed.Store(true)
				if ss.cancel != nil {
					ss.cancel()
				}
			}
		default:
			s.logf("orb: unexpected %s message on server connection", msg.Type)
			return
		}
	}
}

// handle dispatches one request and, unless it was oneway, writes the reply
// as a single frame from a pooled buffer.
func (s *Server) handle(cw *connWriter, j connJob) {
	rep := s.dispatchEntry(j.entry, j.req)
	if j.oneway {
		return // no reply, errors dropped by design
	}
	// Bound the reply write by the request's wire deadline (with a small
	// floor so even an already-expired caller gets its DEADLINE_EXCEEDED
	// reply rather than a hang).
	var deadline time.Time
	if j.req.Deadline != 0 {
		deadline = time.Unix(0, j.req.Deadline)
		if floor := time.Now().Add(time.Second); deadline.Before(floor) {
			deadline = floor
		}
	}
	if err := s.writeReply(cw, rep, deadline); err != nil {
		s.logf("orb: write reply: %v", err)
	}
}

// writeReply encodes and writes one reply frame from a pooled buffer.
func (s *Server) writeReply(cw *connWriter, rep *wire.Reply, deadline time.Time) error {
	fb := wire.GetFrameBuffer()
	out, err := wire.AppendReply(fb.B, rep)
	if err != nil {
		wire.PutFrameBuffer(fb)
		s.logf("orb: encode reply: %v", err)
		return nil // local encode bug; the connection itself is fine
	}
	fb.B = out
	err = cw.writeFrame(fb, deadline)
	wire.PutFrameBuffer(fb)
	return err
}

// handleSubscribe opens one push stream: resolve the servant, require
// EventSource, register the sink, and ack (or refuse) with a normal reply
// correlated by the subscribe frame's request id.
func (s *Server) handleSubscribe(cw *connWriter, sub *wire.Subscribe, subs map[uint64]*serverSub) {
	rep := &wire.Reply{ID: sub.ID}
	entry := s.servantEntryFor(sub.ObjectKey)
	switch {
	case entry == nil:
		rep.ErrCode = CodeNoSuchObject
		rep.Err = fmt.Sprintf("no object %q", sub.ObjectKey)
	default:
		es, ok := entry.servant.(EventSource)
		if !ok {
			rep.ErrCode = CodeBadOperation
			rep.Err = fmt.Sprintf("object %q does not push events", sub.ObjectKey)
			break
		}
		if _, dup := subs[sub.SubID]; dup {
			rep.ErrCode = CodeBadParam
			rep.Err = fmt.Sprintf("duplicate subscription id %d", sub.SubID)
			break
		}
		sink := &eventSink{w: cw, subID: sub.SubID}
		cancel, err := safeSubscribe(es, sub.Topic, sub.Args, sink)
		if err != nil {
			var re *RemoteError
			errors.As(remoteSubscribeError(err), &re)
			rep.ErrCode, rep.Err = re.Code, re.Msg
			break
		}
		subs[sub.SubID] = &serverSub{sink: sink, cancel: cancel}
	}
	if err := s.writeReply(cw, rep, time.Now().Add(DefaultWriteTimeout)); err != nil {
		s.logf("orb: write subscribe ack: %v", err)
	}
}

// servantEntryFor resolves an object key to its servant entry (nil if none
// is registered).
func (s *Server) servantEntryFor(key string) *servantEntry {
	s.mu.RLock()
	entry := s.servants[key]
	s.mu.RUnlock()
	return entry
}

// dispatch routes a request to its servant, applying IDL checking when
// configured, and converts errors into error replies.
func (s *Server) dispatch(req *wire.Request) *wire.Reply {
	return s.dispatchEntry(s.servantEntryFor(req.ObjectKey), req)
}

// dispatchEntry is dispatch with the servant lookup already done.
func (s *Server) dispatchEntry(entry *servantEntry, req *wire.Request) *wire.Reply {
	if s.sm != nil {
		start := time.Now()
		rep := s.dispatchEntryUntimed(entry, req)
		s.sm.observe(time.Since(start), rep.ErrCode)
		return rep
	}
	return s.dispatchEntryUntimed(entry, req)
}

func (s *Server) dispatchEntryUntimed(entry *servantEntry, req *wire.Request) *wire.Reply {
	if req.Deadline != 0 && time.Now().UnixNano() > req.Deadline {
		// Backstop for requests that expired after admission (e.g. while
		// queued for a pool worker); admission-time expiry is caught in
		// serveConn. Both count as ExpiredShed.
		s.stats.expiredShed.Add(1)
		return &wire.Reply{ID: req.ID, ErrCode: CodeDeadline,
			Err: fmt.Sprintf("deadline expired before dispatch of %q", req.Operation)}
	}
	if entry == nil {
		return &wire.Reply{ID: req.ID, ErrCode: CodeNoSuchObject,
			Err: fmt.Sprintf("no object %q", req.ObjectKey)}
	}
	if s.opts.Repo != nil && entry.iface != "" {
		if _, err := s.opts.Repo.CheckCall(entry.iface, req.Operation, req.Args); err != nil {
			var bad *idl.BadCallError
			code := CodeBadParam
			if errors.As(err, &bad) && bad.Msg == "no such operation" {
				code = CodeBadOperation
			}
			return &wire.Reply{ID: req.ID, ErrCode: code, Err: err.Error()}
		}
	}
	results, err := safeInvoke(entry.servant, req.Operation, req.Args)
	if err != nil {
		code := CodeApp
		var app *AppError
		if !errors.As(err, &app) {
			code = CodeInternal
		}
		return &wire.Reply{ID: req.ID, ErrCode: code, Err: err.Error()}
	}
	return &wire.Reply{ID: req.ID, Results: results}
}

// safeInvoke shields the server from servant panics: a panicking servant
// produces an INTERNAL error reply instead of tearing the process down.
func safeInvoke(sv Servant, op string, args []wire.Value) (results []wire.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			results = nil
			err = fmt.Errorf("servant panic in %s: %v", op, r)
		}
	}()
	return sv.Invoke(op, args)
}
