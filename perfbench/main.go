// Command perfbench is the repository's end-to-end benchmark. It assembles
// the real system in one process over loopback TCP — a trader, service
// agents with load monitors, and adaptive smart proxies — drives one named
// workload with one closed-loop client for a fixed time, checks every
// operation's output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// second, traced deployment yields the per-layer ones and the layer ledger.
// See README.md for the workloads and what each metric predicts.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload adapt-cycle --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. trace says which run reports it.
type metricDef struct {
	name, unit, better string
	trace              bool
}

// metricDefs is the benchmark's metric list; BENCHMARK.json mirrors it
// (TestBenchmarkJSONMatches).
var metricDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", false},
	{"p50_us", "us", "lower", false},
	{"p90_us", "us", "lower", false},
	{"setup_s", "s", "lower", false},
	{"rss_mb", "MB", "lower", false},

	{"p99_us", "us", "lower", true},
	{"wire.bytes_per_op", "bytes", "lower", true},
	{"orb.writes_per_op", "count", "lower", true},
	{"orb.rtt_us", "us", "lower", true},
	{"orb.servant_us", "us", "lower", true},
	{"orb.transport_us", "us", "lower", true},
	{"orb.dials", "count", "lower", true},
	{"orb.shed_requests", "count", "lower", true},
	{"core.invoke_self_us", "us", "lower", true},
	{"core.adapt_us", "us", "lower", true},
	{"core.rebind_us", "us", "lower", true},
	{"script.strategy_self_us", "us", "lower", true},
	{"trading.query_us", "us", "lower", true},
	{"trading.lookup_overhead_us", "us", "lower", true},
	{"trading.resolve_us", "us", "lower", true},
	{"trading.resolves_per_query", "count", "lower", true},
	{"trading.write_us", "us", "lower", true},
	{"monitor.tick_us", "us", "lower", true},
	{"monitor.push_us", "us", "lower", true},
	{"runtime.cpu_us_per_op", "us", "lower", true},
	{"runtime.allocs_per_op", "count", "lower", true},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", true},
	{"runtime.gc_per_kop", "count", "lower", true},
	{"ledger.unexplained_frac", "fraction", "lower", true},
	{"trace.overhead_frac", "fraction", "lower", true},
	{"write_p50_us", "us", "lower", true},
	{"error_rate", "fraction", "lower", true},
}

var workloads = []string{"invoke-steady", "adapt-cycle", "trader-churn"}

// procsFor is how many Ps (GOMAXPROCS) a workload's process runs on; each
// choice is the one whose figures repeat from run to run on a shared
// 2-vCPU host.
//
// invoke-steady and adapt-cycle are chains of loopback round trips. On two
// Ps a reply often wakes a thread on the other vCPU, and how long that
// takes depends on the hypervisor's load: invoke-steady's p50 halved when
// a busy loop kept the second vCPU from idling. On one P the thread that
// sent a request also picks up its reply.
//
// trader-churn is mostly the trader's own computation and the garbage it
// makes. On one P each collection's mark work lands on the queries' path
// and its cost moves with the host's memory speed; on two, the collector's
// dedicated worker takes the second P. Over alternating runs its figures
// spread 0.35 on one P and 0.14 on two.
func procsFor(workload string) int {
	if workload == "trader-churn" {
		return 2
	}
	return 1
}

// A run builds the deployment over and over for setupTime, at least
// minSetups and at most maxSetups times; setup_s is the median. A set-up
// takes from a few milliseconds (invoke-steady) to a third of a second
// (trader-churn's 5,000 exports), so cheap ones repeat more.
const (
	setupTime = 2 * time.Second
	minSetups = 5
	maxSetups = 41
)

type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	spansDir string // where a traced run writes its spans; "" = nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	ledger *ledger // the traced run's ledger; nil for an untraced run
}

func (r *result) set(name string, v float64) {
	for _, d := range metricDefs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "measured time of the run (at least 0.1)")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced deployment")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || seconds < 0.1 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and writes its human-readable report to
// out. The caller prints the result line.
func run(cfg config, out io.Writer) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	runtime.GOMAXPROCS(procsFor(cfg.workload))
	m := machine()
	mj, _ := json.Marshal(m) // a map of strings and ints always marshals
	fmt.Fprintf(out, "machine: %s\n", mj)
	fmt.Fprintf(out, "workload: %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	res := &result{Metrics: map[string]metric{}}
	var err error
	if cfg.trace {
		err = runTraced(cfg, res, m, out)
	} else {
		err = runUntraced(cfg, res, out)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	for _, d := range metricDefs {
		if _, ok := res.Metrics[d.name]; !ok && d.trace == cfg.trace {
			res.set(d.name, 0) // the workload has no such layer activity
		}
	}
	for _, d := range metricDefs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(out, "%-28s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	return res, nil
}

// warmFor is the unrecorded warm-up before a measured phase: caches fill
// and lazy set-up (connections, compiled scripts) finishes first.
func warmFor(measure time.Duration) time.Duration {
	w := measure / 10
	if w > time.Second {
		w = time.Second
	}
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config, res *result, out io.Writer) error {
	var setups []float64
	var r rig
	for begun := time.Now(); r == nil; {
		t0 := time.Now()
		rr, err := newRig(cfg.workload, cfg.seed, nil)
		if err != nil {
			return fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); n < minSetups || (n < maxSetups && time.Since(begun) < setupTime) {
			rr.close()
		} else {
			r = rr
		}
	}
	// The earlier set-ups' garbage would otherwise stay in the resident
	// set that rss_mb samples.
	debug.FreeOSMemory()
	drive(r, warmFor(cfg.measure)).count(res)
	_, width := windowsOf(cfg.measure)
	host := sampleHost(width)
	p := drive(r, cfg.measure)
	hs := host()
	var rss []float64
	for _, h := range hs[min(1, len(hs)-1):] { // the first sample is taken at the start
		rss = append(rss, h.rssMB)
	}
	rssMB := median(rss)
	p.count(res)
	r.close()

	s := p.summary()
	for i := range p.windows {
		w := &p.windows[i]
		steal := int64(-1)
		if i+1 < len(hs) {
			steal = hs[i+1].steal - hs[i].steal
		}
		fmt.Fprintf(out, "window %d: %.1f ops/s p50_us=%.2f p90_us=%.2f p99_us=%.2f steal_jiffies=%d\n",
			i, float64(w.ops)/w.width.Seconds(), w.main.quantile(0.5), w.main.quantile(0.9), w.main.quantile(0.99), steal)
	}
	res.set("ops_per_s", s.opsPerS)
	res.set("p50_us", s.p50)
	res.set("p90_us", s.p90)
	res.set("setup_s", median(setups))
	res.set("rss_mb", rssMB)
	fmt.Fprintf(out, "setups=%d attempted=%d main_ops=%d writes=%d p99_us=%.4f write_p50_us=%.4f error_rate=%.6f peak_rss_mb=%.2f\n",
		len(setups), p.attempted, s.mainOps, p.writes.n, s.p99, s.writeP50, errorRate(res), rssFromStatus("VmHWM:"))
	return nil
}

func errorRate(res *result) float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// tracedTurns is how many turns each deployment of a traced run takes.
const tracedTurns = 5

// runTraced measures the per-layer metrics on two deployments: a plain one
// (the reference for trace.overhead_frac, and the runtime counters) and a
// traced one whose spans give the layer times.
func runTraced(cfg config, res *result, m map[string]any, out io.Writer) error {
	half := cfg.measure / 2
	plain, err := newRig(cfg.workload, cfg.seed, nil)
	if err != nil {
		return fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	defer plain.close()
	tr := newTracer()
	traced, err := newRig(cfg.workload, cfg.seed, tr)
	if err != nil {
		return fmt.Errorf("set up traced %s: %w", cfg.workload, err)
	}
	defer traced.close()
	drive(plain, warmFor(half)).count(res)
	drive(traced, warmFor(half)).count(res)
	tr.reset()

	// The two deployments take turns, so both see the same conditions on
	// the machine; the runtime counters cover the plain turns only.
	var pp, tp phase
	var cpu time.Duration
	var mallocs, allocBytes, gcs uint64
	for k := 0; k < tracedTurns; k++ {
		before := readRuntime()
		p := drive(plain, half/tracedTurns)
		after := readRuntime()
		cpu += after.cpu - before.cpu
		mallocs += after.mallocs - before.mallocs
		allocBytes += after.allocBytes - before.allocBytes
		gcs += after.gcs - before.gcs
		pp = pp.join(p)
		tp = tp.join(drive(traced, half/tracedTurns))
	}
	pp.count(res)
	tp.count(res)
	pw := pp.summary()
	perOp := func(v float64, ops int64) float64 { return v / float64(max(ops, 1)) }
	res.set("runtime.cpu_us_per_op", perOp(cpu.Seconds()*1e6, pp.attempted))
	res.set("runtime.allocs_per_op", perOp(float64(mallocs), pp.attempted))
	res.set("runtime.alloc_bytes_per_op", perOp(float64(allocBytes), pp.attempted))
	res.set("runtime.gc_per_kop", perOp(float64(gcs)*1000, pp.attempted))
	res.set("write_p50_us", pw.writeP50)
	res.set("p99_us", pw.p99)

	spans := tr.snapshot()
	shed := traced.sys().shedRequests()

	a := analyze(spans)
	tw := tp.summary()
	res.set("wire.bytes_per_op", perOp(float64(tr.bytes.Load()-tr.probeBytes.Load()), tp.attempted))
	res.set("orb.writes_per_op", perOp(float64(tr.writes.Load()-tr.probeWrites.Load()), tp.attempted))
	res.set("orb.dials", float64(tr.dials.Load()))
	res.set("orb.shed_requests", float64(shed))
	for name, v := range a.metrics {
		res.set(name, v)
	}
	res.set("ledger.unexplained_frac", a.ledger.unexplainedFrac())
	res.ledger = &a.ledger
	overhead := 0.0
	if pw.p50 > 0 {
		overhead = (tw.p50 - pw.p50) / pw.p50
	}
	res.set("trace.overhead_frac", overhead)
	res.set("error_rate", errorRate(res))

	fmt.Fprintf(out, "untraced p50_us=%.4f traced p50_us=%.4f\n", pw.p50, tw.p50)
	printLedger(out, cfg.workload, a.ledger)
	if cfg.spansDir != "" {
		if err := writeSpans(cfg, m, a.ledger, a.spans); err != nil {
			return err
		}
	}
	return nil
}

func printLedger(out io.Writer, workload string, l ledger) {
	if l.Ops == 0 {
		fmt.Fprintf(out, "ledger %s: no traced ops\n", workload)
		return
	}
	perOp := func(ns int64) float64 { return float64(ns) / float64(l.Ops) / 1e3 }
	fmt.Fprintf(out, "ledger %s: %d ops, %.2f us per op\n", workload, l.Ops, perOp(l.TotalNs))
	for _, name := range sortedKeys(l.Parts) {
		fmt.Fprintf(out, "  %-8s %-24s %10.2f us %6.1f%%\n", spanLayer(name), name,
			perOp(l.Parts[name]), 100*float64(l.Parts[name])/float64(l.TotalNs))
	}
	fmt.Fprintf(out, "  %-8s %-24s %10.2f us %6.1f%%\n", "-", "unexplained",
		perOp(l.Unexplained), 100*l.unexplainedFrac())
}

// maxWrittenOps caps how many ops' spans the spans file holds; the ledger
// and the metrics use every op.
const maxWrittenOps = 10000

// writeSpans writes the spans of the traced phase's first maxWrittenOps
// ops, one JSON object a line, after a header line with the machine, the
// run and the ledger. A span's id is its index in the phase; its parent
// names that id, or is -1.
func writeSpans(cfg config, m map[string]any, l ledger, spans []span) error {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(cfg.spansDir, "spans-"+cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"machine": m, "workload": cfg.workload, "seed": cfg.seed,
		"ledger": l, "ops_written": min(l.Ops, maxWrittenOps)})
	written := map[int64]bool{}
	for i := 0; err == nil && i < len(spans); i++ {
		op := spans[i].Op
		if !written[op] && len(written) >= maxWrittenOps {
			continue
		}
		written[op] = true
		err = enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, spans[i]})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// machine describes where the run happened; it is printed with every
// result.
func machine() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// rssFromStatus reads a memory figure of this process (such as VmRSS or
// VmHWM) from /proc/self/status, in MB; 0 where there is none.
func rssFromStatus(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostSample is what the sampler reads at the end of a window.
type hostSample struct {
	rssMB float64
	steal int64 // cumulative jiffies the hypervisor took from this VM's CPUs
}

// stealJiffies reads the machine's cumulative steal time from /proc/stat;
// 0 where the kernel does not account it.
func stealJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var n int64
	fmt.Sscan(f[8], &n)
	return n
}

func readHost() hostSample {
	return hostSample{rssMB: rssFromStatus("VmRSS:"), steal: stealJiffies()}
}

// sampleHost reads the host figures at the start and then every interval
// until the returned function is called, which stops the sampler and
// returns the samples.
func sampleHost(interval time.Duration) func() []hostSample {
	stop, done := make(chan struct{}), make(chan struct{})
	samples := []hostSample{readHost()}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				samples = append(samples, readHost())
			}
		}
	}()
	return func() []hostSample {
		close(stop)
		<-done
		return samples
	}
}

type runtimeSample struct {
	cpu                      time.Duration
	mallocs, allocBytes, gcs uint64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{cpu: cpu, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}
