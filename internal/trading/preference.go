package trading

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"autoadapt/internal/wire"
)

// Preference orders query results. The supported forms follow the OMG
// trader preference grammar:
//
//	first            — keep export order (the default)
//	random           — deterministic shuffle (seeded by the offer ids, so
//	                   repeated queries spread load without true randomness)
//	min <expr>       — ascending by the expression's numeric value
//	max <expr>       — descending by the expression's numeric value
//	with <expr>      — offers satisfying expr sort before those that do not
//
// Offers for which the preference expression cannot be evaluated (for
// min and max: does not yield a number, NaN included) sort last (OMG
// semantics), rather than being dropped: the paper's fallback query
// "specifies only offer sorting, and no filtering" and must still see every
// offer.
type Preference struct {
	src  string
	kind prefKind
	expr cexpr
	refs map[string]struct{} // property names the expression references
}

type prefKind int

const (
	prefFirst prefKind = iota + 1
	prefRandom
	prefMin
	prefMax
	prefWith
)

// ParsePreference compiles a preference string; empty means "first".
func ParsePreference(src string) (*Preference, error) {
	s := strings.TrimSpace(src)
	if s == "" || s == "first" {
		return &Preference{src: src, kind: prefFirst}, nil
	}
	if s == "random" {
		return &Preference{src: src, kind: prefRandom}, nil
	}
	var kind prefKind
	var rest string
	switch {
	case strings.HasPrefix(s, "min "):
		kind, rest = prefMin, s[4:]
	case strings.HasPrefix(s, "max "):
		kind, rest = prefMax, s[4:]
	case strings.HasPrefix(s, "with "):
		kind, rest = prefWith, s[5:]
	default:
		return nil, fmt.Errorf("trading: malformed preference %q", clip(src))
	}
	p := &cparser{src: rest}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trading: preference %q: trailing input", clip(src))
	}
	refs := make(map[string]struct{})
	collectRefs(e, refs)
	return &Preference{src: src, kind: kind, expr: e, refs: refs}, nil
}

// Source returns the original preference text.
func (p *Preference) Source() string { return p.src }

// PropRefs returns the sorted set of property names the preference
// expression references ("first" and "random" reference none). The trader
// uses it for demand-driven snapshots.
func (p *Preference) PropRefs() []string { return sortedRefs(p.refs) }

// references reports whether the preference mentions the property name.
func (p *Preference) references(name string) bool {
	_, ok := p.refs[name]
	return ok
}

// Sort orders results in place. It is rank over the results' snapshots.
func (p *Preference) Sort(results []QueryResult) error {
	items := make([]prefItem, len(results))
	for i := range items {
		items[i].idx = i
	}
	err := p.rank(items,
		func(i int) string { return results[i].Offer.ID },
		func(i int) PropLookup {
			snap := results[i].Snapshot
			return func(name string) (wire.Value, bool) {
				v, ok := snap[name]
				return v, ok
			}
		})
	if err != nil {
		return err
	}
	sorted := make([]QueryResult, len(results))
	for k, it := range items {
		sorted[k] = results[it.idx]
	}
	copy(results, sorted)
	return nil
}

// prefItem is one item being ranked: idx names it to the caller, and ok
// and num are its sort key (unevaluable items have ok=false).
type prefItem struct {
	idx int
	ok  bool
	num float64
}

// rank stably orders items by the preference. For an item index i (an
// items[k].idx), id(i) is the item's offer ID and lookup(i) reads its
// properties. It is the one key-extraction and sort routine: Query ranks
// its matched candidates with it, and Sort ranks a result slice.
func (p *Preference) rank(items []prefItem, id func(int) string, lookup func(int) PropLookup) error {
	switch p.kind {
	case prefFirst:
		return nil
	case prefRandom:
		for k := range items {
			items[k].ok, items[k].num = true, float64(offerHash(id(items[k].idx)))
		}
	case prefMin, prefMax, prefWith:
		for k := range items {
			items[k].ok, items[k].num = p.key(lookup(items[k].idx))
		}
	default:
		return fmt.Errorf("trading: unknown preference kind %d", p.kind)
	}
	slices.SortStableFunc(items, func(a, b prefItem) int {
		switch {
		case a.ok != b.ok:
			if a.ok {
				return -1 // evaluable offers first
			}
			return 1
		case !a.ok:
			return 0
		default:
			return cmp.Compare(a.num, b.num)
		}
	})
	return nil
}

// key evaluates a min, max or with preference for one offer. ok=false
// means the offer cannot be ranked: the expression failed, or min/max got
// a non-number or NaN.
func (p *Preference) key(lookup PropLookup) (ok bool, num float64) {
	v, err := p.expr.eval(lookup)
	if err != nil {
		return false, 0
	}
	if p.kind == prefWith {
		if v.Truthy() {
			return true, 0
		}
		return true, 1
	}
	n, isNum := v.AsNumber()
	if !isNum || math.IsNaN(n) {
		return false, 0
	}
	if p.kind == prefMax {
		n = -n
	}
	return true, n
}

// offerHash is FNV-1a over the offer ID, the "random" preference's key.
func offerHash(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}
