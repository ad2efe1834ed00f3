package main

import (
	"sort"
)

// analysis is what a traced phase's spans yield: per-layer metrics, the
// layer ledger, and the spans with derived ones added and parents linked.
type analysis struct {
	metrics map[string]float64
	ledger  ledger
	spans   []span
}

// analyze derives the span-based per-layer metrics. Every time metric is a
// median over the traced ops, in microseconds.
func analyze(spans []span) analysis {
	spans = withRebind(spans)
	byOp := linkParents(spans)
	a := analysis{metrics: map[string]float64{}, ledger: buildLedger(spans, byOp), spans: spans}

	durs := map[string][]float64{}
	for _, s := range spans {
		if s.Op != 0 {
			durs[s.Name] = append(durs[s.Name], us(s.dur()))
		}
	}
	for metricName, spanName := range map[string]string{
		"orb.rtt_us":         "orb.rtt",
		"orb.servant_us":     "orb.servant",
		"core.adapt_us":      "core.adapt",
		"core.rebind_us":     "core.rebind",
		"trading.query_us":   "trading.query",
		"trading.resolve_us": "trading.resolve",
		"trading.write_us":   "trading.write",
		"monitor.tick_us":    "monitor.tick",
		"monitor.push_us":    "monitor.push",
	} {
		if d := durs[spanName]; len(d) > 0 {
			a.metrics[metricName] = median(d)
		}
	}
	if q := len(durs["trading.query"]); q > 0 {
		a.metrics["trading.resolves_per_query"] = float64(len(durs["trading.resolve"])) / float64(q)
	}

	var invokeSelf, transport, strategySelf, lookupOverhead []float64
	for _, idx := range byOp {
		get := func(name string) int { return find(spans, idx, name, -2) }
		if inv, rtt := get("core.invoke"), get("orb.rtt"); inv >= 0 && rtt >= 0 {
			invokeSelf = append(invokeSelf, us(spans[inv].dur()-spans[rtt].dur()))
			if sv := find(spans, idx, "orb.servant", rtt); sv >= 0 {
				transport = append(transport, us(spans[rtt].dur()-spans[sv].dur()))
			}
		}
		if ad, lk, rb, gv := get("core.adapt"), get("trading.lookup"), get("core.rebind"), get("monitor.getvalue"); ad >= 0 && lk >= 0 && rb >= 0 && gv >= 0 {
			strategySelf = append(strategySelf, us(spans[ad].dur()-spans[lk].dur()-spans[rb].dur()-spans[gv].dur()))
		}
		if lk := get("trading.lookup"); lk >= 0 {
			if q := find(spans, idx, "trading.query", lk); q >= 0 {
				lookupOverhead = append(lookupOverhead, us(spans[lk].dur()-spans[q].dur()))
			}
		}
	}
	for name, vs := range map[string][]float64{
		"core.invoke_self_us":        invokeSelf,
		"orb.transport_us":           transport,
		"script.strategy_self_us":    strategySelf,
		"trading.lookup_overhead_us": lookupOverhead,
	} {
		if len(vs) > 0 {
			a.metrics[name] = median(vs)
		}
	}
	return a
}

// withRebind adds a core.rebind span to every op whose strategy queried
// the trader: from the query's return to the end of Adapt, the proxy
// subscribes to the new server's monitor and drops the old subscription.
func withRebind(spans []span) []span {
	type pair struct{ adapt, lookup int }
	ops := map[int64]*pair{}
	for i, s := range spans {
		if s.Op == 0 || (s.Name != "core.adapt" && s.Name != "trading.lookup") {
			continue
		}
		p := ops[s.Op]
		if p == nil {
			p = &pair{-1, -1}
			ops[s.Op] = p
		}
		if s.Name == "core.adapt" {
			p.adapt = i
		} else {
			p.lookup = i
		}
	}
	out := spans
	for op, p := range ops {
		if p.adapt < 0 || p.lookup < 0 {
			continue
		}
		ad, lk := spans[p.adapt], spans[p.lookup]
		if lk.Start >= ad.Start && lk.End <= ad.End {
			out = append(out, span{Name: "core.rebind", Op: op, Start: lk.End, End: ad.End, Parent: -1})
		}
	}
	return out
}

// find returns the index of the op's first span with the given name and
// parent (-2 matches any parent), or -1.
func find(spans []span, idx []int, name string, parent int) int {
	for _, i := range idx {
		if spans[i].Name == name && (parent == -2 || spans[i].Parent == parent) {
			return i
		}
	}
	return -1
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// median is the middle value of vs (the mean of the two middle ones for an
// even count); vs is reordered.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
