package trading

import (
	"context"
	"testing"

	"autoadapt/internal/wire"
)

// fuzzTrader builds the small fixed offer table the query fuzzers run
// against: static numbers, strings and booleans, dynamic values and
// aspects, an unreachable monitor, and offers missing properties.
func fuzzTrader() *Trader {
	res := &stubResolver{values: map[string]wire.Value{
		monitorRef(1).String() + "#":           wire.Number(3),
		monitorRef(1).String() + "#Increasing": wire.String("no"),
		monitorRef(2).String() + "#":           wire.Number(8),
		monitorRef(2).String() + "#Increasing": wire.String("yes"),
	}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	tr.AddType(ServiceType{Name: "Other"})
	offers := []map[string]PropValue{
		{"LoadAvg": {Static: wire.Number(1)}, "Region": {Static: wire.String("east")}, "Up": {Static: wire.Bool(true)}},
		{"LoadAvg": {Dynamic: monitorRef(1)}, "LoadAvgIncreasing": {Dynamic: monitorRef(1), Aspect: "Increasing"}, "Region": {Static: wire.String("west")}},
		{"LoadAvg": {Dynamic: monitorRef(2)}, "LoadAvgIncreasing": {Dynamic: monitorRef(2), Aspect: "Increasing"}, "Up": {Static: wire.Bool(false)}},
		{"LoadAvg": {Dynamic: monitorRef(0)}, "Region": {Static: wire.String("east")}}, // unreachable monitor
		{"Region": {Static: wire.String("no")}, "Rank": {Static: wire.Number(-2.5)}},
		{"LoadAvg": {Static: wire.Number(3)}, "LoadAvgIncreasing": {Static: wire.String("yes")}, "Rank": {Static: wire.Number(7)}},
		nil,
	}
	for i, p := range offers {
		if _, err := tr.Export("S", serverRef(i), p); err != nil {
			panic(err)
		}
	}
	if _, err := tr.Export("Other", serverRef(99), map[string]PropValue{"LoadAvg": {Static: wire.Number(0)}}); err != nil {
		panic(err)
	}
	return tr
}

// checkAgainstReference runs one query on a fresh fuzz table and on
// referenceQuery; both must agree on results or on the parse error.
func checkAgainstReference(t *testing.T, constraint, preference string, maxResults int) {
	tr := fuzzTrader()
	want, wantErr := referenceQuery(tr, "S", constraint, preference, maxResults)
	got, gotErr := tr.Query(context.Background(), "S", constraint, preference, maxResults)
	if err := sameResults(got, gotErr, want, wantErr); err != nil {
		t.Fatalf("Query(%q, %q, %d): %v", constraint, preference, maxResults, err)
	}
}

// FuzzConstraint checks Query against the reference implementation for
// arbitrary constraint strings, under a ranking and a plain preference.
func FuzzConstraint(f *testing.F) {
	for _, s := range []string{
		"",
		"LoadAvg < 5 and LoadAvgIncreasing == no",
		"exist Region and not exist LoadAvg",
		"Region == 'east' or Up",
		"LoadAvg * 2 - Rank / 0 > 1",
		"-(-LoadAvg) <= 3",
		"((LoadAvg",
		"not not Up == yes",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, constraint string) {
		checkAgainstReference(t, constraint, "min LoadAvg", 0)
		checkAgainstReference(t, constraint, "", 2)
	})
}

// FuzzPreference checks Query against the reference implementation for
// arbitrary preference strings, unfiltered and filtered.
func FuzzPreference(f *testing.F) {
	for _, s := range []string{
		"",
		"first",
		"random",
		"min LoadAvg",
		"max LoadAvg + Rank",
		"with Region == 'east'",
		"min 0 * LoadAvg / 0",
		"max (",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, preference string) {
		checkAgainstReference(t, "", preference, 0)
		checkAgainstReference(t, "exist LoadAvg", preference, 3)
	})
}
