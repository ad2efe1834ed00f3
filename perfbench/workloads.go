package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Operation kinds: the main op of a workload (an invocation, an
// adaptation cycle, a query) and trader writes.
const (
	kindMain uint8 = iota
	kindWrite
)

// rig is one workload set up on a system. step runs one closed-loop
// operation, checks its output, and returns the op's kind, latency and
// whether it was correct.
type rig interface {
	step(ctx context.Context) (kind uint8, lat time.Duration, ok bool)
	sys() *system
	close()
}

// newRig builds the named workload from seed. tr is nil for an untraced
// run.
func newRig(name string, seed int64, tr *tracer) (rig, error) {
	switch name {
	case "invoke-steady":
		return newInvokeRig(seed, tr)
	case "adapt-cycle":
		return newAdaptRig(seed, tr)
	case "trader-churn":
		return newChurnRig(seed, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opTimer records an op's root span and its children in a traced run and
// only measures latency in an untraced one.
type opTimer struct {
	tr    *tracer
	id    int64
	start time.Time
	root  int64

	writes, bytes int64 // transport counters when the op stopped
}

func startOp(tr *tracer, seq *atomic.Int64) opTimer {
	t := opTimer{tr: tr}
	if tr != nil {
		t.id = seq.Add(1)
		tr.op.Store(t.id)
		t.root = tr.now()
	}
	t.start = time.Now()
	return t
}

// child times f as a span of the op.
func (t opTimer) child(name string, f func()) {
	if t.tr == nil {
		f()
		return
	}
	s := t.tr.now()
	f()
	t.tr.add(name, t.id, s, t.tr.now())
}

// stop ends the op's root span and returns its latency. Probes taken
// after stop still carry the op id; done clears it and books the probes'
// transport traffic apart from the op's.
func (t *opTimer) stop() time.Duration {
	lat := time.Since(t.start)
	if t.tr != nil {
		t.tr.add("op", t.id, t.root, t.tr.now())
		t.writes, t.bytes = t.tr.writes.Load(), t.tr.bytes.Load()
	}
	return lat
}

func (t *opTimer) done() {
	if t.tr != nil {
		t.tr.probeWrites.Add(t.tr.writes.Load() - t.writes)
		t.tr.probeBytes.Add(t.tr.bytes.Load() - t.bytes)
		t.tr.op.Store(0)
	}
}

// echoArgs are the small arguments of one echo call.
func echoArgs(rng *rand.Rand, n int) [][]wire.Value {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	out := make([][]wire.Value, n)
	for i := range out {
		b := make([]byte, 8+rng.Intn(17))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = []wire.Value{wire.String(string(b)), wire.Int(rng.Intn(1 << 20))}
	}
	return out
}

func echoed(rs, args []wire.Value) bool {
	if len(rs) != len(args) {
		return false
	}
	for i := range rs {
		if !rs[i].Equal(args[i]) {
			return false
		}
	}
	return true
}

// ---- invoke-steady ----

// invokeRig: the client calls a small-argument echo through one bound
// smart proxy; no monitor event ever fires.
type invokeRig struct {
	s    *system
	sp   *core.SmartProxy
	ref  wire.ObjRef
	args [][]wire.Value
	next int
	seq  atomic.Int64
}

func newInvokeRig(seed int64, tr *tracer) (*invokeRig, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := newSystem(tr, 0)
	if err != nil {
		return nil, err
	}
	r := &invokeRig{s: s}
	load := &loadCell{}
	level := 1 + float64(rng.Intn(4000))/100
	load.set(level, level, level)
	if _, err := s.addAgent(&echoServer{}, load); err != nil {
		s.close()
		return nil, err
	}
	if r.sp, err = s.newProxy(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	r.ref, _ = r.sp.Current()
	r.args = echoArgs(rng, 256)
	return r, nil
}

func (r *invokeRig) step(ctx context.Context) (uint8, time.Duration, bool) {
	args := r.args[r.next%len(r.args)]
	r.next++
	t := startOp(r.s.tr, &r.seq)
	var rs []wire.Value
	var err error
	t.child("core.invoke", func() { rs, err = r.sp.Invoke(ctx, "echo", args...) })
	lat := t.stop()
	ok := err == nil && echoed(rs, args)
	if r.s.tr != nil {
		t.child("orb.rtt", func() { rs, err = r.s.plat.Client.Invoke(ctx, r.ref, "echo", args...) })
		ok = ok && err == nil && echoed(rs, args)
	}
	t.done()
	return kindMain, lat, ok
}

func (r *invokeRig) sys() *system { return r.s }

func (r *invokeRig) close() {
	r.sp.Close()
	r.s.close()
}

// ---- adapt-cycle ----

const (
	adaptServers = 8
	raisedLoad   = 80 // above loadLimit: the Fig. 4 predicate fires
	pushTimeout  = 2 * time.Second
)

// adaptRig runs the paper's adaptation loop on one proxy over eight
// agents whose offers export LoadAvg and LoadAvgIncreasing as dynamic
// properties served by their monitors.
type adaptRig struct {
	s       *system
	sp      *core.SmartProxy
	rng     *rand.Rand
	servers []*echoServer
	loads   []*loadCell
	level   []float64 // each server's settled load
	refs    []wire.ObjRef
	mons    []wire.ObjRef
	cur     int
	args    [][]wire.Value
	n       int
	seq     atomic.Int64
}

func newAdaptRig(seed int64, tr *tracer) (*adaptRig, error) {
	s, err := newSystem(tr, 0)
	if err != nil {
		return nil, err
	}
	r := &adaptRig{s: s, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < adaptServers; i++ {
		r.level = append(r.level, math.Inf(1))
		r.level[i] = r.drawLoad(i)
		srv, load := &echoServer{}, &loadCell{}
		load.set(r.level[i], r.level[i], r.level[i])
		a, err := s.addAgent(srv, load)
		if err != nil {
			s.close()
			return nil, err
		}
		r.servers = append(r.servers, srv)
		r.loads = append(r.loads, load)
		r.refs = append(r.refs, a.ServiceRef())
		r.mons = append(r.mons, a.MonitorRef())
	}
	if r.sp, err = s.newProxy(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	r.args = echoArgs(r.rng, 256)
	if r.cur = r.bound(); r.cur != r.best(-1) {
		r.close()
		return nil, fmt.Errorf("initial bind chose server %d, want %d", r.cur, r.best(-1))
	}
	return r, nil
}

// drawLoad draws a settled load for server i, distinct from every other
// server's so the preference order has no ties.
func (r *adaptRig) drawLoad(i int) float64 {
	for {
		v := 1 + float64(r.rng.Intn(4400))/100
		clash := false
		for j, l := range r.level {
			clash = clash || (j != i && l == v)
		}
		if !clash {
			return v
		}
	}
}

// best is the oracle: the least loaded server other than skip.
func (r *adaptRig) best(skip int) int {
	b := -1
	for i, l := range r.level {
		if i != skip && l < loadLimit && (b < 0 || l < r.level[b]) {
			b = i
		}
	}
	return b
}

// bound returns the index of the server the proxy is bound to, or -1.
func (r *adaptRig) bound() int {
	ref, _ := r.sp.Current()
	for i, x := range r.refs {
		if x == ref {
			return i
		}
	}
	return -1
}

func (r *adaptRig) served() []int64 {
	out := make([]int64, len(r.servers))
	for i, s := range r.servers {
		out[i] = s.served.Load()
	}
	return out
}

// step is one adaptation cycle as a closed-loop application sees it. The
// bound server's load is raised and its monitor ticked; the Fig. 4
// predicate pushes LoadIncrease to the proxy. The client keeps invoking,
// and the first Invoke after the event arrives runs the Fig. 7 strategy,
// which re-queries the trader (16 dynamic properties resolved over the
// ORB) and rebinds. The op ends with the first reply from the new server,
// which must be the oracle's; until then only the old server may serve.
// Then the old server's load settles again.
func (r *adaptRig) step(ctx context.Context) (uint8, time.Duration, bool) {
	old, want := r.cur, r.best(r.cur)
	mon := r.s.agents[old].Monitor()
	queued := r.sp.Stats().EventsQueued
	tr := r.s.tr

	t := startOp(tr, &r.seq)
	r.loads[old].set(raisedLoad, r.level[old], r.level[old])
	var err error
	t.child("monitor.tick", func() { err = mon.Tick() })
	ok := err == nil && want >= 0
	deadline := time.Now().Add(pushTimeout)
	var args []wire.Value
	for adapted, switched := false, false; ok && !switched; {
		if tr != nil && !adapted && r.sp.Stats().EventsQueued != queued {
			// Traced: run the strategy apart from Invoke so it gets its
			// own span. The push is seen at the resolution of one call.
			tr.add("monitor.push", t.id, t.root, tr.now())
			t.child("core.adapt", func() { err = r.sp.Adapt(ctx) })
			adapted, ok = true, err == nil
		}
		args = r.args[r.n%len(r.args)]
		r.n++
		before := r.served()
		var rs []wire.Value
		t.child("core.invoke", func() { rs, err = r.sp.Invoke(ctx, "echo", args...) })
		switch servedBy(before, r.served()) {
		case want:
			switched = true
		case old:
			ok = !adapted
		default:
			ok = false
		}
		ok = ok && err == nil && echoed(rs, args) && time.Now().Before(deadline)
	}
	lat := t.stop()
	ok = ok && r.bound() == want
	if tr != nil && ok {
		var prs []wire.Value
		t.child("orb.rtt", func() { prs, err = r.s.plat.Client.Invoke(ctx, r.refs[want], "echo", args...) })
		ok = err == nil && echoed(prs, args)
		t.child("monitor.getvalue", func() { _, err = r.s.plat.Client.Invoke(ctx, r.mons[old], "getValue") })
		ok = ok && err == nil
	}
	t.done()

	// The old server settles at a fresh load; the proxy no longer watches
	// it, so this tick fires nothing.
	r.level[old] = r.drawLoad(old)
	r.loads[old].set(r.level[old], r.level[old], r.level[old])
	if err := mon.Tick(); err != nil {
		ok = false
	}
	r.cur = r.bound()
	if r.cur < 0 {
		ok = false
		r.resync(ctx)
	}
	return kindMain, lat, ok
}

// servedBy returns the one server whose call count rose by exactly one
// between two snapshots while every other stayed put, or -1.
func servedBy(before, after []int64) int {
	by := -1
	for i := range after {
		switch d := after[i] - before[i]; {
		case d == 1 && by < 0:
			by = i
		case d != 0:
			return -1
		}
	}
	return by
}

// resync re-binds the proxy after a failed cycle left it unbound.
func (r *adaptRig) resync(ctx context.Context) {
	_ = r.sp.Adapt(ctx) // drain whatever event is still queued
	_ = r.sp.Bind(ctx)  // a failure leaves cur at -1 and the next step fails too
	r.cur = r.bound()
	if r.cur < 0 {
		r.cur = 0
	}
}

func (r *adaptRig) sys() *system { return r.s }

func (r *adaptRig) close() {
	r.sp.Close()
	r.s.close()
}

// ---- trader-churn ----

const (
	churnTypes      = 100
	churnOffers     = 5000
	churnQueryShare = 0.92 // of steps; an export step is two writes, so ~10% of ops are writes
	churnLeaseTTL   = time.Hour
)

var churnRegions = []string{"eu", "us", "asia", "sa"}

// churnOffer is the benchmark's own record of one offer: the oracle's
// table. Each type's offers are kept in export order.
type churnOffer struct {
	id       string
	cost     float64
	capacity int
	region   string
	secure   bool
}

func (o *churnOffer) props() map[string]trading.PropValue {
	return map[string]trading.PropValue{
		"Cost":     {Static: wire.Number(o.cost)},
		"Capacity": {Static: wire.Int(o.capacity)},
		"Region":   {Static: wire.String(o.region)},
		"Secure":   {Static: wire.Bool(o.secure)},
	}
}

func drawOffer(rng *rand.Rand) *churnOffer {
	return &churnOffer{
		cost:     float64(rng.Intn(10000)) / 100,
		capacity: 1 + rng.Intn(16),
		region:   churnRegions[rng.Intn(len(churnRegions))],
		secure:   rng.Intn(3) == 0,
	}
}

type churnType struct {
	name   string
	offers []*churnOffer
}

// churnQuery is one of the fixed constraint/preference pairs real proxies
// reuse, with the oracle's reading of it. key nil keeps export order.
type churnQuery struct {
	constraint, preference string
	max                    int
	match                  func(o *churnOffer) bool
	key                    func(o *churnOffer) float64
}

var churnQueries = []churnQuery{
	{"Cost < 50", "min Cost", 0,
		func(o *churnOffer) bool { return o.cost < 50 },
		func(o *churnOffer) float64 { return o.cost }},
	{"Region == eu and Capacity >= 4", "max Capacity", 5,
		func(o *churnOffer) bool { return o.region == "eu" && o.capacity >= 4 },
		func(o *churnOffer) float64 { return -float64(o.capacity) }},
	{"Secure == yes or Cost < 20", "with Secure", 0,
		func(o *churnOffer) bool { return o.secure || o.cost < 20 },
		func(o *churnOffer) float64 {
			if o.secure {
				return 0
			}
			return 1
		}},
	{"Capacity * 10 > Cost", "first", 10,
		func(o *churnOffer) bool { return float64(o.capacity)*10 > o.cost },
		nil},
	{"", "min Cost", 1,
		func(*churnOffer) bool { return true },
		func(o *churnOffer) float64 { return o.cost }},
	{"Region != us", "max Cost", 3,
		func(o *churnOffer) bool { return o.region != "us" },
		func(o *churnOffer) float64 { return -o.cost }},
}

// expect is the brute-force oracle for q over t's offers.
func (q churnQuery) expect(t *churnType) []*churnOffer {
	var out []*churnOffer
	for _, o := range t.offers {
		if q.match(o) {
			out = append(out, o)
		}
	}
	if q.key != nil {
		sort.SliceStable(out, func(i, j int) bool { return q.key(out[i]) < q.key(out[j]) })
	}
	if q.max > 0 && len(out) > q.max {
		out = out[:q.max]
	}
	return out
}

func matchesOracle(rs []trading.QueryResult, want []*churnOffer) bool {
	if len(rs) != len(want) {
		return false
	}
	for i, r := range rs {
		w := want[i]
		cost, _ := r.Snapshot["Cost"].AsNumber()
		capacity, _ := r.Snapshot["Capacity"].AsNumber()
		region, _ := r.Snapshot["Region"].AsString()
		secure, isBool := r.Snapshot["Secure"].AsBool()
		if r.Offer.ID != w.id || cost != w.cost || capacity != float64(w.capacity) ||
			region != w.region || !isBool || secure != w.secure {
			return false
		}
	}
	return true
}

// churnRig drives one trader holding 5,000 static offers across 100
// types with a read-mostly mix of queries and writes.
type churnRig struct {
	s        *system
	rng      *rand.Rand // the op mix
	types    []*churnType
	cursor   int
	withdraw *churnType // an export leaves the type's oldest offer to withdraw next
	requery  *churnType // a write is checked by querying its type next
	refs     int        // the last offer ref used
	seq      atomic.Int64
}

func newChurnRig(seed int64, tr *tracer) (*churnRig, error) {
	s, err := newSystem(tr, churnLeaseTTL)
	if err != nil {
		return nil, err
	}
	r := &churnRig{s: s, rng: rand.New(rand.NewSource(seed*7919 + 1)), refs: churnOffers}
	rng := rand.New(rand.NewSource(seed))
	types := make([]*churnType, churnTypes)
	for i := range types {
		types[i] = &churnType{name: fmt.Sprintf("Churn%03d", i)}
		s.trader.AddType(trading.ServiceType{Name: types[i].name})
	}
	ctx := context.Background()
	for i := 0; i < churnOffers; i++ {
		t := types[i%churnTypes]
		o := drawOffer(rng)
		if o.id, err = s.exports.Export(ctx, t.name, churnRef(i), o.props()); err != nil {
			s.close()
			return nil, fmt.Errorf("load offer %d: %w", i, err)
		}
		t.offers = append(t.offers, o)
	}
	r.types = types
	return r, nil
}

// churnRef names an offer's (never invoked) server object.
func churnRef(n int) wire.ObjRef {
	return wire.ObjRef{Endpoint: "tcp|127.0.0.1:1", Key: fmt.Sprintf("churn/%d", n)}
}

func (r *churnRig) step(ctx context.Context) (uint8, time.Duration, bool) {
	lk := r.s.lookup
	if t := r.withdraw; t != nil {
		r.withdraw, r.requery = nil, t
		oldest := t.offers[0]
		timer := startOp(r.s.tr, &r.seq)
		err := lk.Withdraw(ctx, oldest.id)
		lat := timer.stop()
		timer.done()
		if err == nil {
			t.offers = t.offers[1:]
		}
		return kindWrite, lat, err == nil
	}
	if r.requery == nil && r.rng.Float64() >= churnQueryShare {
		return r.write(ctx)
	}
	t := r.requery
	r.requery = nil
	if t == nil {
		t = r.types[r.cursor%len(r.types)]
		r.cursor++
	}
	q := churnQueries[r.rng.Intn(len(churnQueries))]
	timer := startOp(r.s.tr, &r.seq)
	rs, err := lk.Query(ctx, t.name, q.constraint, q.preference, q.max)
	lat := timer.stop()
	timer.done()
	return kindMain, lat, err == nil && matchesOracle(rs, q.expect(t))
}

// write runs one Export, Modify or Renew.
func (r *churnRig) write(ctx context.Context) (uint8, time.Duration, bool) {
	t := r.types[r.rng.Intn(len(r.types))]
	r.requery = t
	lk := r.s.lookup
	pick := t.offers[r.rng.Intn(len(t.offers))]
	var err error
	var lat time.Duration
	switch r.rng.Intn(3) {
	case 0:
		o := drawOffer(r.rng)
		r.refs++
		timer := startOp(r.s.tr, &r.seq)
		o.id, err = lk.Export(ctx, t.name, churnRef(r.refs), o.props())
		lat = timer.stop()
		timer.done()
		if err == nil {
			t.offers = append(t.offers, o)
			r.withdraw, r.requery = t, nil
		}
	case 1:
		next := drawOffer(r.rng)
		next.id = pick.id
		timer := startOp(r.s.tr, &r.seq)
		err = lk.Modify(ctx, pick.id, next.props())
		lat = timer.stop()
		timer.done()
		if err == nil {
			*pick = *next
		}
	default:
		timer := startOp(r.s.tr, &r.seq)
		err = lk.Renew(ctx, pick.id)
		lat = timer.stop()
		timer.done()
	}
	return kindWrite, lat, err == nil
}

func (r *churnRig) sys() *system { return r.s }

func (r *churnRig) close() { r.s.close() }
