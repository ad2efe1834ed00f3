package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// span is one timed call across a layer boundary. Parent is filled in
// after the run by time containment (linkParents): the traced phase drives
// one client, so every span of an op nests inside the op's root in time.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and counts transport activity. The
// benchmark's client sets op before each operation; wrappers running on
// server goroutines read it to tag their spans.
type tracer struct {
	epoch time.Time
	op    atomic.Int64

	mu    sync.Mutex
	spans []span

	// Transport counters; probe* is the share of probe calls made after
	// an op's root span ended.
	writes, bytes, dials    atomic.Int64
	probeWrites, probeBytes atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin captures the current op and the start time of a span.
func (t *tracer) begin() (op, start int64) { return t.op.Load(), t.now() }

// end records a span that began at start.
func (t *tracer) end(name string, op, start int64) { t.add(name, op, start, t.now()) }

func (t *tracer) add(name string, op, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// reset drops spans and counters recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.writes.Store(0)
	t.bytes.Store(0)
	t.dials.Store(0)
	t.probeWrites.Store(0)
	t.probeBytes.Store(0)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedNetwork counts dials and wraps every connection, dialled or
// accepted, so transport writes and bytes are counted on both sides.
type tracedNetwork struct {
	orb.Network
	tr *tracer
}

func (n tracedNetwork) Listen(addr string) (orb.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tracedListener{Listener: l, tr: n.tr}, nil
}

func (n tracedNetwork) Dial(addr string) (net.Conn, error) {
	n.tr.dials.Add(1)
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, tr: n.tr}, nil
}

func (n tracedNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	cd, ok := n.Network.(orb.ContextDialer)
	if !ok {
		return n.Dial(addr)
	}
	n.tr.dials.Add(1)
	c, err := cd.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, tr: n.tr}, nil
}

type tracedListener struct {
	orb.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
}

// Write counts before writing, so a reply is counted before the client
// that reads it can end its op.
func (c tracedConn) Write(p []byte) (int, error) {
	c.tr.writes.Add(1)
	c.tr.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// tracedDirectory times a trading.Directory: on the client as the proxy's
// Lookup, on the server behind trading.NewDirectoryServant.
type tracedDirectory struct {
	trading.Directory
	tr           *tracer
	query, write string
}

func (d tracedDirectory) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]trading.QueryResult, error) {
	op, s := d.tr.begin()
	rs, err := d.Directory.Query(ctx, serviceType, constraint, preference, maxResults)
	d.tr.end(d.query, op, s)
	return rs, err
}

func (d tracedDirectory) Export(ctx context.Context, serviceType string, ref wire.ObjRef, props map[string]trading.PropValue) (string, error) {
	op, s := d.tr.begin()
	id, err := d.Directory.Export(ctx, serviceType, ref, props)
	d.tr.end(d.write, op, s)
	return id, err
}

func (d tracedDirectory) Withdraw(ctx context.Context, offerID string) error {
	op, s := d.tr.begin()
	err := d.Directory.Withdraw(ctx, offerID)
	d.tr.end(d.write, op, s)
	return err
}

func (d tracedDirectory) Modify(ctx context.Context, offerID string, props map[string]trading.PropValue) error {
	op, s := d.tr.begin()
	err := d.Directory.Modify(ctx, offerID, props)
	d.tr.end(d.write, op, s)
	return err
}

func (d tracedDirectory) Renew(ctx context.Context, offerID string) error {
	op, s := d.tr.begin()
	err := d.Directory.Renew(ctx, offerID)
	d.tr.end(d.write, op, s)
	return err
}

// tracedResolver times each dynamic-property resolution the trader makes.
type tracedResolver struct {
	inner trading.DynamicResolver
	tr    *tracer
}

func (r tracedResolver) ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	op, s := r.tr.begin()
	v, err := r.inner.ResolveDynamic(ctx, ref, aspect)
	r.tr.end("trading.resolve", op, s)
	return v, err
}

// tracedServant times the application servant behind the ORB.
type tracedServant struct {
	inner orb.Servant
	tr    *tracer
}

func (s tracedServant) Invoke(opName string, args []wire.Value) ([]wire.Value, error) {
	op, st := s.tr.begin()
	rs, err := s.inner.Invoke(opName, args)
	s.tr.end("orb.servant", op, st)
	return rs, err
}

// tracedLoad times the monitor's read of its load source inside Tick.
type tracedLoad struct {
	inner monitor.LoadSource
	tr    *tracer
}

func (l tracedLoad) LoadAvg() (float64, float64, float64, error) {
	op, s := l.tr.begin()
	a, b, c, err := l.inner.LoadAvg()
	l.tr.end("monitor.update", op, s)
	return a, b, c, err
}

// linkParents sets each span's parent to the shortest span of the same op,
// with another name, that contains it in time. Same-name spans are never
// nested: the trader's parallel resolutions are siblings even when one
// happens to fall inside another's interval.
func linkParents(spans []span) map[int64][]int {
	byOp := make(map[int64][]int)
	for i := range spans {
		if spans[i].Op != 0 {
			byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
		}
	}
	for _, idx := range byOp {
		for _, i := range idx {
			best := -1
			for _, j := range idx {
				if j == i || spans[j].Name == spans[i].Name {
					continue
				}
				if spans[j].Start <= spans[i].Start && spans[i].End <= spans[j].End &&
					(best < 0 || spans[j].dur() < spans[best].dur()) {
					best = j
				}
			}
			spans[i].Parent = best
		}
	}
	return byOp
}

// spanLayer maps a span to the layer its self time is charged to. The
// smart proxy's Adapt runs the script strategy, so its self time is the
// script layer's.
func spanLayer(name string) string {
	if name == "core.adapt" {
		return "script"
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// ledger is the per-op time of one traced phase split into the self time
// of each span name; Unexplained is the part of the ops covered by no span
// below the root.
type ledger struct {
	Ops         int                `json:"ops"`
	TotalNs     int64              `json:"total_ns"`
	Parts       map[string]int64   `json:"parts_ns"`
	Layers      map[string]int64   `json:"layers_ns"`
	Unexplained int64              `json:"unexplained_ns"`
	Shares      map[string]float64 `json:"layer_shares"`
}

func (l ledger) unexplainedFrac() float64 {
	if l.TotalNs == 0 {
		return 0
	}
	return float64(l.Unexplained) / float64(l.TotalNs)
}

// buildLedger charges every instant of each op's root span to the deepest
// span active at that instant, so parallel children count once. Two parts
// are then split off with the probes the traced phase takes after each op:
// the transport share of each core.invoke (probe round trip minus its
// servant time) and the monitor getValue call inside core.adapt.
func buildLedger(spans []span, byOp map[int64][]int) ledger {
	l := ledger{Parts: map[string]int64{}, Layers: map[string]int64{}, Shares: map[string]float64{}}
	for _, idx := range byOp {
		root := find(spans, idx, "op", -2)
		if root < 0 {
			continue
		}
		self := chargeOp(spans, idx, root)
		l.Ops++
		l.TotalNs += spans[root].dur()
		transport := probeTransport(spans, idx)
		var getValue int64
		if gv := find(spans, idx, "monitor.getvalue", -2); gv >= 0 {
			getValue = spans[gv].dur()
		}
		invokes := 0
		for _, i := range idx {
			if spans[i].Name == "core.invoke" {
				invokes++
			}
		}
		moveShare(self, "core.invoke", "orb.transport", transport*int64(invokes))
		moveShare(self, "core.adapt", "orb.getvalue", getValue)
		for name, ns := range self {
			if name == "op" {
				l.Unexplained += ns
				continue
			}
			l.Parts[name] += ns
		}
	}
	for name, ns := range l.Parts {
		l.Layers[spanLayer(name)] += ns
	}
	if l.TotalNs > 0 {
		for layer, ns := range l.Layers {
			l.Shares[layer] = float64(ns) / float64(l.TotalNs)
		}
		l.Shares["unexplained"] = l.unexplainedFrac()
	}
	return l
}

// chargeOp returns the self time of each span name within one op's root.
func chargeOp(spans []span, idx []int, root int) map[string]int64 {
	depth := func(i int) int {
		d := 0
		for i != root {
			i = spans[i].Parent
			if i < 0 {
				return -1 // not below the root: a probe or a stray span
			}
			d++
		}
		return d
	}
	var members []int
	var depths []int
	var cuts []int64
	for _, i := range idx {
		if d := depth(i); d >= 0 {
			members = append(members, i)
			depths = append(depths, d)
			cuts = append(cuts, spans[i].Start, spans[i].End)
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	self := map[string]int64{}
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		deepest, dd := root, -1
		for m, i := range members {
			if spans[i].Start <= a && b <= spans[i].End && depths[m] > dd {
				deepest, dd = i, depths[m]
			}
		}
		self[spans[deepest].Name] += b - a
	}
	return self
}

// probeTransport is the round trip of the op's orb.rtt probe minus the
// servant time under it; 0 when the op took no probe.
func probeTransport(spans []span, idx []int) int64 {
	rtt := find(spans, idx, "orb.rtt", -2)
	if rtt < 0 {
		return 0
	}
	d := spans[rtt].dur()
	if sv := find(spans, idx, "orb.servant", rtt); sv >= 0 {
		d -= spans[sv].dur()
	}
	return d
}

// moveShare moves up to ns of from's self time to a part named to.
func moveShare(self map[string]int64, from, to string, ns int64) {
	if ns <= 0 {
		return
	}
	if ns > self[from] {
		ns = self[from]
	}
	if ns == 0 {
		return
	}
	self[from] -= ns
	self[to] += ns
}
