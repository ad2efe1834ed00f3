package trading

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/wire"
)

// referenceQuery is Query's contract written the slow, obvious way: scan
// every offer of every type, order the candidates by export sequence,
// build every snapshot, filter by the constraint, then SortByPreference
// and truncate. It only reads the trader, so it must run before the Query
// it is compared with, which updates quarantine counters.
func referenceQuery(tr *Trader, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
	cons, err := ParseConstraint(constraint)
	if err != nil {
		return nil, err
	}
	pref, err := ParsePreference(preference)
	if err != nil {
		return nil, err
	}
	tr.mu.RLock()
	_, known := tr.types[serviceType]
	var recs []offerRecord
	now := tr.clk.Now()
	for _, rec := range tr.offers {
		if rec.offer.ServiceType == serviceType && !rec.expired(now) {
			recs = append(recs, *rec)
		}
	}
	tr.mu.RUnlock()
	if !known {
		return nil, fmt.Errorf("%w: %q", ErrUnknownServiceType, serviceType)
	}
	sort.Slice(recs, func(i, j int) bool { return offerSeq(recs[i].offer.ID) < offerSeq(recs[j].offer.ID) })
	var out []QueryResult
	for _, rec := range recs {
		snap := map[string]wire.Value{}
		for name, pv := range rec.offer.Props {
			if !pv.IsDynamic() {
				snap[name] = pv.Static
				continue
			}
			if tr.resolver == nil || (!cons.references(name) && !pref.references(name)) {
				continue
			}
			if v, err := tr.resolver.ResolveDynamic(context.Background(), pv.Dynamic, pv.Aspect); err == nil {
				snap[name] = v
			}
		}
		if rec.quarantined {
			continue
		}
		ok, err := cons.Eval(func(name string) (wire.Value, bool) {
			v, ok := snap[name]
			return v, ok
		})
		if err != nil || !ok {
			continue
		}
		out = append(out, QueryResult{Offer: rec.offer, Snapshot: snap})
	}
	if err := SortByPreference(preference, out); err != nil {
		return nil, err
	}
	if maxResults > 0 && len(out) > maxResults {
		out = out[:maxResults]
	}
	return out, nil
}

func offerSeq(id string) int {
	n, _ := strconv.Atoi(id[len("offer-"):])
	return n
}

// sameResults compares two query outcomes: the same error text, or the
// same offers in the same order with equal snapshots.
func sameResults(got []QueryResult, gotErr error, want []QueryResult, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("error = %v, reference error = %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results %v, reference has %d %v", len(got), resultIDs(got), len(want), resultIDs(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("result %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

func resultIDs(rs []QueryResult) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.Offer.ID
	}
	return ids
}

// checkIndex verifies the per-type index: every record of the offer map
// sits in exactly one byType slice, the one of its service type, and each
// slice is in export order.
func checkIndex(tr *Trader) error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	seen := make(map[*offerRecord]bool, len(tr.offers))
	for st, recs := range tr.byType {
		for i, rec := range recs {
			id := rec.offer.ID
			switch {
			case seen[rec]:
				return fmt.Errorf("%s indexed twice", id)
			case rec.offer.ServiceType != st:
				return fmt.Errorf("%s of type %s indexed under %s", id, rec.offer.ServiceType, st)
			case tr.offers[id] != rec:
				return fmt.Errorf("%s indexed but not in the offer map", id)
			case i > 0 && offerSeq(recs[i-1].offer.ID) >= offerSeq(id):
				return fmt.Errorf("type %s out of export order: %s before %s", st, recs[i-1].offer.ID, id)
			}
			seen[rec] = true
		}
	}
	if len(seen) != len(tr.offers) {
		return fmt.Errorf("index holds %d records, offer map %d", len(seen), len(tr.offers))
	}
	return nil
}

// diffQueries are the constraint/preference pairs the differential test
// draws from: static-only, dynamic (value and aspect), a preference-only
// dynamic reference, and every preference form.
var diffQueries = [][2]string{
	{"", ""},
	{"", "random"},
	{"LoadAvg < 5", "min LoadAvg"},
	{"LoadAvg < 5 and LoadAvgIncreasing == no", "max LoadAvg"},
	{"exist Region", "with Region == 'east'"},
	{"Region != 'west' or LoadAvg >= 7", "first"},
	{"not exist LoadAvg", "min Rank"},
	{"", "max LoadAvg"},
}

// TestIndexDifferential drives a trader through seeded random sequences of
// Export, Withdraw, Modify, Renew, Reap and lease expiry on a simulated
// clock, across several types, with static and dynamic offers and one
// unreachable monitor that quarantines its offers. After every step the
// index must be consistent and every query must match referenceQuery.
func TestIndexDifferential(t *testing.T) {
	types := []string{"A", "B", "C"}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			res := &stubResolver{values: map[string]wire.Value{}}
			const monitors = 6 // monitor 0 never answers
			for m := 1; m < monitors; m++ {
				res.values[monitorRef(m).String()+"#"] = wire.Number(float64(rng.Intn(10)))
				res.values[monitorRef(m).String()+"#Increasing"] = wire.String([]string{"yes", "no"}[m%2])
			}
			sim := clock.NewSim(leaseEpoch)
			tr := NewTrader(res)
			tr.SetClock(sim)
			tr.SetLeaseTTL(10 * time.Second)
			for _, st := range types {
				tr.AddType(ServiceType{Name: st})
			}
			props := func() map[string]PropValue {
				p := map[string]PropValue{"Rank": {Static: wire.Number(float64(rng.Intn(4)))}}
				if rng.Intn(3) > 0 {
					p["Region"] = PropValue{Static: wire.String([]string{"east", "west"}[rng.Intn(2)])}
				}
				switch rng.Intn(3) {
				case 0:
					m := rng.Intn(monitors)
					p["LoadAvg"] = PropValue{Dynamic: monitorRef(m)}
					p["LoadAvgIncreasing"] = PropValue{Dynamic: monitorRef(m), Aspect: "Increasing"}
				case 1:
					p["LoadAvg"] = PropValue{Static: wire.Number(float64(rng.Intn(10)))}
					p["LoadAvgIncreasing"] = PropValue{Static: wire.String("no")}
				}
				return p
			}
			var ids []string
			pick := func() string {
				if len(ids) == 0 || rng.Intn(10) == 0 {
					return "offer-999999"
				}
				return ids[rng.Intn(len(ids))]
			}
			for step := 0; step < 300; step++ {
				var op string
				switch r := rng.Intn(20); {
				case r < 7:
					op = "export"
					id, err := tr.Export(types[rng.Intn(len(types))], serverRef(step), props())
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				case r < 10:
					op = "withdraw"
					_ = tr.Withdraw(pick())
				case r < 12:
					op = "modify"
					_ = tr.Modify(pick(), props())
				case r < 14:
					op = "renew"
					_ = tr.Renew(pick())
				case r < 16:
					op = "advance"
					sim.Advance(time.Duration(rng.Intn(5000)) * time.Millisecond)
				case r < 17:
					op = "reap"
					tr.Reap()
				default:
					op = "query"
				}
				if err := checkIndex(tr); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				for _, st := range types {
					q := diffQueries[rng.Intn(len(diffQueries))]
					limit := rng.Intn(4)
					want, wantErr := referenceQuery(tr, st, q[0], q[1], limit)
					got, gotErr := tr.Query(context.Background(), st, q[0], q[1], limit)
					if err := sameResults(got, gotErr, want, wantErr); err != nil {
						t.Fatalf("step %d (%s): Query(%s, %q, %q, %d): %v", step, op, st, q[0], q[1], limit, err)
					}
				}
			}
			quarantined := 0
			for _, id := range ids {
				if tr.Quarantined(id) {
					quarantined++
				}
			}
			t.Logf("%d exports, %d live, %d quarantined at the end", len(ids), tr.OfferCount(), quarantined)
		})
	}
}

// TestReapFiltersIndex pins the reaper's one-pass filter: mass expiry in
// one type keeps the survivors of every type indexed and in order.
func TestReapFiltersIndex(t *testing.T) {
	sim := clock.NewSim(leaseEpoch)
	tr := NewTrader(nil)
	tr.SetClock(sim)
	tr.SetLeaseTTL(10 * time.Second)
	tr.AddType(ServiceType{Name: "A"})
	tr.AddType(ServiceType{Name: "B"})
	var keep []string
	for i := 0; i < 1000; i++ {
		st := "A"
		if i%10 == 0 {
			st = "B"
		}
		id, err := tr.Export(st, serverRef(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			keep = append(keep, id)
		}
	}
	sim.Advance(5 * time.Second)
	for _, id := range keep {
		if err := tr.Renew(id); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(6 * time.Second)
	if n := tr.Reap(); n != 1000-len(keep) {
		t.Fatalf("reaped %d, want %d", n, 1000-len(keep))
	}
	if err := checkIndex(tr); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range []string{"A", "B"} {
		rs, err := tr.Query(context.Background(), st, "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resultIDs(rs)...)
	}
	sort.Slice(got, func(i, j int) bool { return offerSeq(got[i]) < offerSeq(got[j]) })
	if !reflect.DeepEqual(got, keep) {
		t.Fatalf("survivors = %v, want %v", got, keep)
	}
}

// TestQueryAllocsScaleWithResults is the allocation guard for the lazy
// snapshots: a static 100-offer query returning one offer may not pay an
// allocation per candidate.
func TestQueryAllocsScaleWithResults(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	for i := 0; i < 100; i++ {
		_, err := tr.Export("S", serverRef(i), map[string]PropValue{
			"LoadAvg":           {Static: wire.Number(float64(i % 10))},
			"LoadAvgIncreasing": {Static: wire.String("no")},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	query := func() {
		rs, err := tr.Query(ctx, "S", "LoadAvg < 5 and LoadAvgIncreasing == no", "min LoadAvg", 1)
		if err != nil || len(rs) != 1 {
			t.Fatalf("Query = %d results, %v", len(rs), err)
		}
	}
	query() // parse caches and scratch pool warm
	// Measured: 6 allocs (lookup closure, result slice, snapshot map).
	if allocs := testing.AllocsPerRun(200, query); allocs > 16 {
		t.Fatalf("static 100-offer query with maxResults=1: %.1f allocs, ceiling 16", allocs)
	}
}
