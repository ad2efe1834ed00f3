package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"autoadapt"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// system is one deployment of the real stack over loopback TCP, built from
// the public constructors: a trader served by an orb.Server, service
// agents, and a client Platform. With a tracer, every seam the benchmark
// times is wrapped; without one, nothing is.
type system struct {
	tr  *tracer
	net orb.Network

	trader    *trading.Trader
	traderSrv *orb.Server
	traderCli *orb.Client // resolves dynamic properties
	traderRef wire.ObjRef

	exporter *orb.Client // the agents' (and the offer loader's) trader client
	exports  trading.Directory
	agents   []*autoadapt.Agent

	plat   *autoadapt.Platform
	lookup trading.Directory // the clients' view of the trader
}

const serviceType = "Echo"

// newSystem starts a trader and connects a client platform to it.
func newSystem(tr *tracer, leaseTTL time.Duration) (*system, error) {
	s := &system{tr: tr, net: autoadapt.TCP()}
	if tr != nil {
		s.net = tracedNetwork{Network: s.net, tr: tr}
	}
	s.traderCli = orb.NewClient(s.net)
	var resolver trading.DynamicResolver = trading.ClientResolver{Client: s.traderCli}
	if tr != nil {
		resolver = tracedResolver{inner: resolver, tr: tr}
	}
	s.trader = trading.NewTrader(resolver)
	if leaseTTL > 0 {
		s.trader.SetLeaseTTL(leaseTTL)
	}
	s.trader.AddType(trading.ServiceType{Name: serviceType})
	srv, err := orb.NewServer(orb.ServerOptions{Network: s.net, Address: "127.0.0.1:0"})
	if err != nil {
		s.close()
		return nil, err
	}
	s.traderSrv = srv
	var dir trading.Directory = trading.Local{T: s.trader}
	if tr != nil {
		dir = tracedDirectory{Directory: dir, tr: tr, query: "trading.query", write: "trading.write"}
	}
	s.traderRef = srv.Register(trading.DefaultObjectKey, "", trading.NewDirectoryServant(dir, s.trader.TypeNames))

	s.exporter = orb.NewClient(s.net)
	s.exports = trading.NewLookup(s.exporter, s.traderRef)
	plat, err := autoadapt.Connect(s.net, s.traderRef, "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.plat = plat
	s.lookup = plat.Lookup
	if tr != nil {
		s.lookup = tracedDirectory{Directory: s.lookup, tr: tr, query: "trading.lookup", write: "trading.lookup_write"}
	}
	return s, nil
}

// echoServer is the application servant each agent exports: it returns
// its arguments and counts the calls it served.
type echoServer struct{ served atomic.Int64 }

func (e *echoServer) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	if op != "echo" {
		return nil, orb.Appf("echo server: no such operation %q", op)
	}
	e.served.Add(1)
	return args, nil
}

// loadCell is a settable monitor.LoadSource.
type loadCell struct{ one, five, fifteen atomic.Uint64 }

func (c *loadCell) set(one, five, fifteen float64) {
	c.one.Store(math.Float64bits(one))
	c.five.Store(math.Float64bits(five))
	c.fifteen.Store(math.Float64bits(fifteen))
}

func (c *loadCell) LoadAvg() (float64, float64, float64, error) {
	return math.Float64frombits(c.one.Load()), math.Float64frombits(c.five.Load()),
		math.Float64frombits(c.fifteen.Load()), nil
}

// addAgent starts a service agent exporting srv with the given load source.
// Its monitor never ticks on its own: the workload calls Tick.
func (s *system) addAgent(srv *echoServer, load *loadCell) (*autoadapt.Agent, error) {
	var servant orb.Servant = srv
	var src monitor.LoadSource = load
	if s.tr != nil {
		servant = tracedServant{inner: servant, tr: s.tr}
		src = tracedLoad{inner: src, tr: s.tr}
	}
	a, err := autoadapt.StartAgent(context.Background(), autoadapt.AgentOptions{
		Network:       s.net,
		Address:       "127.0.0.1:0",
		Lookup:        s.exports,
		ServiceType:   serviceType,
		Servant:       servant,
		LoadSource:    src,
		MonitorPeriod: time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("start agent: %w", err)
	}
	s.agents = append(s.agents, a)
	return a, nil
}

// The paper's §V selection: the least loaded server whose load is not
// rising, re-evaluated by the Fig. 7 strategy when the Fig. 4 predicate
// reports LoadIncrease.
const (
	loadLimit       = 50
	adaptConstraint = "LoadAvg < 50 and LoadAvgIncreasing == no"
	adaptPreference = "min LoadAvg"
	fig7Strategy    = `{
	LoadIncrease = function(self)
		self._loadavg = self._loadavgmon:getValue()
		local query
		query = "LoadAvg < 50 and LoadAvgIncreasing == no"
		if not self:_select(query) then
			self._loadavgmon:attachEventObserver(
				self._observer,
				"LoadIncrease",
				[[function(observer, value, monitor)
					local incr
					incr = monitor:getAspectValue("Increasing")
					return value[1] > 70 and incr == "yes"
				end]])
		end
	end
}`
)

// newProxy creates the adaptive smart proxy and binds it through the
// trader.
func (s *system) newProxy(ctx context.Context) (*core.SmartProxy, error) {
	sp, err := core.New(core.Options{
		Client:         s.plat.Client,
		Lookup:         s.lookup,
		ObserverServer: s.plat.ObserverServer,
		ServiceType:    serviceType,
		Constraint:     adaptConstraint,
		Preference:     adaptPreference,
		Watches: []core.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(loadLimit),
		}},
	})
	if err != nil {
		return nil, err
	}
	if err := sp.SetScriptStrategiesTable(fig7Strategy); err != nil {
		sp.Close()
		return nil, err
	}
	if err := sp.Bind(ctx); err != nil {
		sp.Close()
		return nil, fmt.Errorf("bind proxy: %w", err)
	}
	return sp, nil
}

// shedRequests counts requests refused at admission by the servers the
// benchmark owns.
func (s *system) shedRequests() int64 {
	var n uint64
	for _, srv := range []*orb.Server{s.traderSrv, s.plat.ObserverServer} {
		st := srv.Stats()
		n += st.ShedRequests + st.ExpiredShed
	}
	return int64(n)
}

// close tears the deployment down: agents first, so their withdrawals
// still reach the trader.
func (s *system) close() {
	for _, a := range s.agents {
		_ = a.Close(context.Background()) // best effort: the trader goes next
	}
	if s.plat != nil {
		_ = s.plat.Close()
	}
	if s.exporter != nil {
		_ = s.exporter.Close()
	}
	if s.traderSrv != nil {
		_ = s.traderSrv.Close()
	}
	_ = s.traderCli.Close()
}
