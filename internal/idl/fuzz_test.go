package idl

import (
	"reflect"
	"testing"
)

// FuzzIDL loads arbitrary IDL and, when the load succeeds, checks the
// repository against itself: every listed name looks up, every operation
// of every interface resolves to itself, and loading the same source into
// a fresh repository yields the same interfaces.
func FuzzIDL(f *testing.F) {
	for _, s := range []string{
		paperIDL,
		"interface A { void f(in long x); };",
		"interface A : B { long f(); }; interface B : A { string g(in string s); };",
		"module M { typedef sequence<double> V; interface I { V get(); oneway void put(in V v); }; };",
		"interface I { readonly attribute double load; attribute string name; };",
		"interface I { void f(); }; interface I { void g(); };",
		"// comment\ninterface I { /* c */ boolean ok(in any a, in octet b); };",
		"interface { };",
		"typedef foo;",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := NewRepository()
		if err := r.LoadIDL(src); err != nil {
			return
		}
		names := r.Names()
		for _, name := range names {
			iface := r.Lookup(name)
			if iface == nil || iface.Name != name {
				t.Fatalf("Names lists %q but Lookup returns %+v", name, iface)
			}
			for _, op := range iface.Operations() {
				if got := r.ResolveOp(name, op.Name); got != op {
					t.Fatalf("ResolveOp(%q, %q) = %+v, want the interface's own %+v", name, op.Name, got, op)
				}
			}
		}
		again := NewRepository()
		if err := again.LoadIDL(src); err != nil {
			t.Fatalf("second load of the same source failed: %v", err)
		}
		if got := again.Names(); !reflect.DeepEqual(got, names) {
			t.Fatalf("second load names %q, first %q", got, names)
		}
		for _, name := range names {
			a, b := r.Lookup(name), again.Lookup(name)
			if !reflect.DeepEqual(a.Bases, b.Bases) || !reflect.DeepEqual(a.Operations(), b.Operations()) {
				t.Fatalf("interface %q differs between loads:\n  %+v\n  %+v", name, a, b)
			}
		}
	})
}
