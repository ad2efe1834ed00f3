package wire

import "testing"

// Allocation-regression guards for the codec hot paths. The pooled-buffer
// overhaul got the append-style encoders to zero allocations per message;
// these tests fail if a change quietly reintroduces per-message garbage.
// Ceilings carry one or two allocations of slack over the measured counts
// so unrelated runtime/toolchain noise does not flake them.

func TestAllocGuardAppendRequest(t *testing.T) {
	req := &Request{
		ID:        7,
		ObjectKey: "echo",
		Operation: "do",
		Args:      []Value{Int(42), String("x")},
		Deadline:  123456789,
	}
	fb := GetFrameBuffer()
	defer PutFrameBuffer(fb)
	// Warm the buffer so steady-state reuse is what gets measured.
	out, err := AppendRequest(fb.B, req, false)
	if err != nil {
		t.Fatal(err)
	}
	fb.B = out
	allocs := testing.AllocsPerRun(200, func() {
		fb.B = fb.B[:frameHeaderLen]
		out, err := AppendRequest(fb.B, req, false)
		if err != nil {
			t.Fatal(err)
		}
		fb.B = out
	})
	if allocs > 0 {
		t.Fatalf("AppendRequest into warm pooled buffer: %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGuardAppendReply(t *testing.T) {
	rep := &Reply{ID: 7, Results: []Value{Int(42), String("x")}}
	fb := GetFrameBuffer()
	defer PutFrameBuffer(fb)
	out, err := AppendReply(fb.B, rep)
	if err != nil {
		t.Fatal(err)
	}
	fb.B = out
	allocs := testing.AllocsPerRun(200, func() {
		fb.B = fb.B[:frameHeaderLen]
		out, err := AppendReply(fb.B, rep)
		if err != nil {
			t.Fatal(err)
		}
		fb.B = out
	})
	if allocs > 0 {
		t.Fatalf("AppendReply into warm pooled buffer: %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGuardDecodeMessage(t *testing.T) {
	req := &Request{ID: 7, ObjectKey: "echo", Operation: "do", Args: []Value{Int(42)}, Deadline: 1}
	encReq, err := AppendRequest(nil, req, false)
	if err != nil {
		t.Fatal(err)
	}
	encRep, err := AppendReply(nil, &Reply{ID: 7, Results: []Value{Int(42)}})
	if err != nil {
		t.Fatal(err)
	}
	// Measured: 5 allocs (Request, Args backing array, two field strings,
	// Message) — the decoder copies what it keeps so frame buffers can be
	// recycled underneath it.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encReq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Fatalf("DecodeMessage(request): %.1f allocs/op, want <= 6", allocs)
	}
	// Measured: 3 allocs (Reply, Results backing array, Message).
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(encRep); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("DecodeMessage(reply): %.1f allocs/op, want <= 4", allocs)
	}
}
