package trading

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"autoadapt/internal/wire"
)

func props(m map[string]wire.Value) PropLookup {
	return func(name string) (wire.Value, bool) {
		v, ok := m[name]
		return v, ok
	}
}

func evalConstraint(t *testing.T, src string, lookup PropLookup) bool {
	t.Helper()
	c, err := ParseConstraint(src)
	if err != nil {
		t.Fatalf("ParseConstraint(%q): %v", src, err)
	}
	ok, err := c.Eval(lookup)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return ok
}

func TestPaperConstraint(t *testing.T) {
	// The exact constraints from §V and Fig. 7.
	lowRising := props(map[string]wire.Value{
		"LoadAvg":           wire.Number(30),
		"LoadAvgIncreasing": wire.String("no"),
	})
	highRising := props(map[string]wire.Value{
		"LoadAvg":           wire.Number(80),
		"LoadAvgIncreasing": wire.String("yes"),
	})
	src := "LoadAvg < 50 and LoadAvgIncreasing == no"
	if !evalConstraint(t, src, lowRising) {
		t.Fatal("idle server should match the paper's constraint")
	}
	if evalConstraint(t, src, highRising) {
		t.Fatal("loaded server should not match the paper's constraint")
	}
}

func TestConstraintOperators(t *testing.T) {
	p := props(map[string]wire.Value{
		"x":    wire.Number(10),
		"y":    wire.Number(3),
		"name": wire.String("alpha"),
		"up":   wire.Bool(true),
	})
	tests := []struct {
		src  string
		want bool
	}{
		{"x == 10", true},
		{"x != 10", false},
		{"x > 9", true},
		{"x >= 10", true},
		{"x < 10", false},
		{"x <= 10", true},
		{"x + y == 13", true},
		{"x - y == 7", true},
		{"x * y == 30", true},
		{"x / 2 == 5", true},
		{"x + 2 * y == 16", true}, // precedence
		{"(x + 2) * y == 36", true},
		{"-x == -10", true},
		{"not (x > 100)", true},
		{"x > 5 and y > 1", true},
		{"x > 100 or y > 1", true},
		{"x > 100 and y > 1", false},
		{"exist x", true},
		{"exist missing", false},
		{"not exist missing", true},
		{"name == 'alpha'", true},
		{`name == "alpha"`, true},
		{"name == alpha", true}, // bareword as string
		{"name < beta", true},   // string ordering
		{"up == true", true},
		{"up == yes", true}, // boolean vs bareword yes
		{"up != no", true},
		{"true", true},
		{"false", false},
		{"2.5e1 == 25", true},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := evalConstraint(t, tt.src, p); got != tt.want {
				t.Fatalf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
			}
		})
	}
}

func TestEmptyConstraintMatchesAll(t *testing.T) {
	if !evalConstraint(t, "", props(nil)) {
		t.Fatal("empty constraint should match")
	}
	if !evalConstraint(t, "   ", props(nil)) {
		t.Fatal("blank constraint should match")
	}
}

func TestConstraintEvalErrors(t *testing.T) {
	p := props(map[string]wire.Value{"s": wire.String("str"), "n": wire.Number(1)})
	for _, src := range []string{
		"s + 1 == 2",  // arithmetic on string
		"n / 0 == 1",  // division by zero
		"-s == 0",     // negate string
		"n < missing", // number vs bareword-string comparison
	} {
		c, err := ParseConstraint(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := c.Eval(p); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestConstraintParseErrors(t *testing.T) {
	for _, src := range []string{
		"x ==",
		"(x == 1",
		"x == 'unterminated",
		"and x",
		"x == 1 extra garbage(",
		"exist",
		"x @ 1",
		"1..2 == 1",
	} {
		if _, err := ParseConstraint(src); err == nil {
			t.Errorf("ParseConstraint(%q) succeeded, want error", src)
		}
	}
}

func TestConstraintSourcePreserved(t *testing.T) {
	src := "LoadAvg < 50"
	c, err := ParseConstraint(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source() != src {
		t.Fatalf("Source() = %q", c.Source())
	}
}

// referenceEval is an independent, slow reference implementation for the
// numeric comparison fragment used in the property test below.
func referenceEval(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "==":
		return a == b
	case "!=":
		return a != b
	}
	return false
}

func TestPropertyNumericComparisonsAgainstReference(t *testing.T) {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(float64(r.Intn(200) - 100))
			args[1] = reflect.ValueOf(float64(r.Intn(200) - 100))
			args[2] = reflect.ValueOf(ops[r.Intn(len(ops))])
		},
	}
	prop := func(a, b float64, op string) bool {
		src := "a " + op + " b"
		c, err := ParseConstraint(src)
		if err != nil {
			return false
		}
		got, err := c.Eval(props(map[string]wire.Value{
			"a": wire.Number(a), "b": wire.Number(b),
		}))
		if err != nil {
			return false
		}
		return got == referenceEval(op, a, b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyArithmeticAgainstReference(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(float64(r.Intn(100) + 1))
			args[1] = reflect.ValueOf(float64(r.Intn(100) + 1))
		},
	}
	prop := func(a, b float64) bool {
		c, err := ParseConstraint("a + b * 2 - a / b")
		if err != nil {
			return false
		}
		v, err := c.root.eval(props(map[string]wire.Value{
			"a": wire.Number(a), "b": wire.Number(b),
		}))
		if err != nil {
			return false
		}
		want := a + b*2 - a/b
		got, ok := v.AsNumber()
		return ok && got == want
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLooseEqual(t *testing.T) {
	tests := []struct {
		a, b wire.Value
		want bool
	}{
		{wire.Bool(true), wire.String("yes"), true},
		{wire.Bool(true), wire.String("true"), true},
		{wire.Bool(true), wire.String("no"), false},
		{wire.Bool(false), wire.String("no"), true},
		{wire.Bool(false), wire.String("false"), true},
		{wire.String("yes"), wire.Bool(true), true},
		{wire.Number(1), wire.String("1"), false},
		{wire.Number(2), wire.Number(2), true},
	}
	for _, tt := range tests {
		if got := looseEqual(tt.a, tt.b); got != tt.want {
			t.Errorf("looseEqual(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestConstraintErrorMessagesNameSource(t *testing.T) {
	_, err := ParseConstraint("x ==")
	if err == nil || !strings.Contains(err.Error(), "x ==") {
		t.Fatalf("parse error should quote the source: %v", err)
	}
}

// TestParseTooDeep feeds 500k-deep expressions of every nesting form — a
// megabyte-scale string, well inside one wire frame — to both parsers.
// Each must fail with ErrTooDeep instead of overflowing the stack, which
// would kill the process.
func TestParseTooDeep(t *testing.T) {
	const n = 500000
	forms := map[string]string{
		"parentheses":  strings.Repeat("(", n) + "x" + strings.Repeat(")", n),
		"not chain":    strings.Repeat("not ", n) + "x",
		"minus chain":  strings.Repeat("-", n) + "1",
		"binary chain": "1" + strings.Repeat("+1", n),
		"and chain":    "x" + strings.Repeat(" and x", n),
	}
	for name, src := range forms {
		if _, err := ParseConstraint(src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("constraint %s: err = %.200v, want ErrTooDeep", name, err)
		} else if len(err.Error()) > 200 {
			t.Errorf("constraint %s: error carries %d bytes of source", name, len(err.Error()))
		}
		if _, err := ParsePreference("min " + src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("preference %s: err = %.200v, want ErrTooDeep", name, err)
		}
	}
}

// TestParseDepthLimitBoundary pins the limit itself: expressions at
// maxExprDepth parse and evaluate, one level more does not parse.
func TestParseDepthLimitBoundary(t *testing.T) {
	lookup := func(string) (wire.Value, bool) { return wire.Number(1), true }
	for name, mk := range map[string]func(d int) string{
		"parentheses":  func(d int) string { return strings.Repeat("(", d) + "x == 1" + strings.Repeat(")", d) },
		"binary chain": func(d int) string { return "1" + strings.Repeat("+1", d-1) },
	} {
		c, err := ParseConstraint(mk(maxExprDepth))
		if err != nil {
			t.Errorf("%s at the limit: %v", name, err)
		} else if ok, err := c.Eval(lookup); err != nil || !ok {
			t.Errorf("%s at the limit: Eval = %v, %v", name, ok, err)
		}
		if _, err := ParseConstraint(mk(maxExprDepth + 1)); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s past the limit: err = %.200v, want ErrTooDeep", name, err)
		}
	}
}
