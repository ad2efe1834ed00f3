package script

import (
	"errors"
	"strings"
	"testing"
)

// TestParseTooDeep feeds 2M-deep input of every nesting form. Before the
// depth limit, the first of these (a 4 MB table constructor) killed the
// process with a fatal, unrecoverable stack overflow.
func TestParseTooDeep(t *testing.T) {
	const n = 2_000_000
	r := strings.Repeat
	cases := map[string]string{
		"tables":      "return " + r("{", n) + r("}", n),
		"parens":      "return " + r("(", n) + "1" + r(")", n),
		"unary minus": "return " + r("- ", n) + "1",
		"not":         "return " + r("not ", n) + "true",
		"length":      "return " + r("#", n) + "t",
		"call chain":  "return f" + r("()", n),
		"field chain": "return t" + r(".x", n),
		"index chain": "return t" + r("[1]", n),
		"method":      "return o" + r(":m()", n),
		"functions":   "return " + r("function() return ", n) + "1" + r(" end", n),
		"plus chain":  "return 1" + r("+1", n),
		"and chain":   "return true" + r(" and true", n),
		"power chain": "return 2" + r("^2", n),
		"concat":      "return 'a'" + r("..'a'", n),
		"blocks":      r("do ", n) + r("end ", n),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := New(Options{}).Eval("deep", src)
			var se *SyntaxError
			if !errors.Is(err, ErrTooDeep) || !errors.As(err, &se) || !strings.HasPrefix(err.Error(), "deep:1: ") {
				t.Fatalf("err = %v, want a positioned *SyntaxError wrapping ErrTooDeep", err)
			}
		})
	}
	// CompileFunction reports the limit rather than retrying the source
	// as a chunk and failing on the syntax of that.
	src := "function() return " + r("{", n) + r("}", n) + " end"
	if _, err := New(Options{}).CompileFunction("deep", src); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("CompileFunction: err = %v, want ErrTooDeep", err)
	}
}

// TestParseDepthLimitBoundary pins the limit: a chunk that nests exactly
// maxNesting levels compiles and runs on both engines, one level more is
// rejected. A level is a statement or an expression on the path from the
// chunk to the deepest leaf, so "return ((1))" nests 4 deep: the return
// statement, two parentheses and the literal. The last case nests two
// operator chains inside each other; each is short enough for the parser,
// and the resolver rejects the combined height.
func TestParseDepthLimitBoundary(t *testing.T) {
	r := strings.Repeat
	cases := []struct {
		name  string
		extra int // levels besides the k repeated ones
		src   func(k int) string
	}{
		{"parens", 2, func(k int) string { return "return " + r("(", k) + "1" + r(")", k) }},
		{"tables", 1, func(k int) string { return "return " + r("{", k) + r("}", k) }},
		{"unary minus", 2, func(k int) string { return "return " + r("- ", k) + "1" }},
		{"plus chain", 2, func(k int) string { return "return 1" + r("+1", k) }},
		{"field chain", 2, func(k int) string { return "local t = {} t.x = t return t" + r(".x", k) }},
		{"nested chains", 503, func(k int) string { return "return (" + r("1+", 500) + "1)" + r("+1", k) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := maxNesting - c.extra
			for _, eng := range bothEngines {
				if _, err := eng.new(Options{}).Eval("edge", c.src(k)); err != nil {
					t.Fatalf("%s: depth %d: %v", eng, maxNesting, err)
				}
			}
			if _, err := New(Options{}).Eval("edge", c.src(k+1)); !errors.Is(err, ErrTooDeep) {
				t.Fatalf("depth %d: err = %v, want ErrTooDeep", maxNesting+1, err)
			}
		})
	}
}
