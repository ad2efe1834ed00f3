package script

import (
	"errors"
	"strings"
	"testing"
)

// checkVMLimit compiles src on both engines and requires a positioned
// ErrVMLimit from Compile and Eval, with nothing run.
func checkVMLimit(t *testing.T, src, wantPos, wantMsg string) {
	t.Helper()
	for _, eng := range bothEngines {
		in := eng.new(Options{})
		if _, err := in.Compile("limit", src); !errors.Is(err, ErrVMLimit) ||
			!strings.HasPrefix(err.Error(), wantPos) || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("%s: Compile err = %v, want %q ... %q wrapping ErrVMLimit", eng, err, wantPos, wantMsg)
		}
		if _, err := in.Eval("limit", src); !errors.Is(err, ErrVMLimit) {
			t.Fatalf("%s: Eval err = %v, want ErrVMLimit", eng, err)
		}
		if ran := in.Globals().GetString("ran"); !ran.IsNil() {
			t.Fatalf("%s: a chunk over the VM's limits ran (ran = %v)", eng, ran)
		}
	}
}

// TestCompileRegisterLimit: a call with more arguments than the register
// file holds is a compile error naming the chunk and the line.
func TestCompileRegisterLimit(t *testing.T) {
	args := strings.TrimSuffix(strings.Repeat("1,", maxVMRegs+1), ",")
	src := "ran = true\nreturn print(" + args + ")"
	checkVMLimit(t, src, "limit:2: ", "more than 65536 registers")

	// A call whose frame just fits the register file compiles and runs.
	ok := "local function n(...) return #{...} end return n(" +
		strings.TrimSuffix(strings.Repeat("1,", maxVMRegs-2), ",") + ")"
	vs, err := New(Options{}).Eval("limit", ok)
	if err != nil || len(vs) != 1 || vs[0].Num() != maxVMRegs-2 {
		t.Fatalf("call just under the register limit: %v, %v", vs, err)
	}
}

// TestCompileConstantLimit: a function with more distinct constants than
// its table can address is a compile error naming the chunk and the line.
// The limit is lowered for the test: a chunk over the real one (1<<24
// distinct literals) would need gigabytes to parse.
func TestCompileConstantLimit(t *testing.T) {
	defer func(n int) { maxVMConsts = n }(maxVMConsts)
	maxVMConsts = 4
	// 1, 2, 3 and 4 fill the table; 5 overflows it on line 3.
	checkVMLimit(t, "ran = true\nlocal a = 1\nreturn 2, 3, 4, 5", "limit:3: ", "more than 4 constants")
}
