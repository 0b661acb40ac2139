package main

import (
	"errors"
	"strings"
	"testing"

	"vbuscluster/internal/mesh"
)

const goodTrace = `{"displayTimeUnit":"ns","traceEvents":[
 {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"rank 0"}},
 {"name":"send","ph":"X","ts":0,"dur":10,"pid":1,"tid":0,"args":{"bytes":64}},
 {"name":"recv","ph":"X","ts":12,"dur":5,"pid":1,"tid":1,"args":{"bytes":64}}
]}`

func TestValidateGood(t *testing.T) {
	out, err := validate("t.json", []byte(goodTrace), 0, mesh.Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 events") || !strings.Contains(out, "rank 0") {
		t.Errorf("summary missing expected content:\n%s", out)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"empty", "", "empty trace file"},
		{"whitespace", "  \n\t ", "empty trace file"},
		{"truncated", goodTrace[:len(goodTrace)/2], "truncated"},
		{"truncated-tiny", `{"traceEvents":[{"name":`, "truncated"},
		{"not-json", "not a trace", "invalid trace JSON"},
		{"wrong-shape", `{"traceEvents": 42}`, "invalid trace JSON"},
		{"trailing", goodTrace + `{"extra":1}`, "trailing data"},
		{"no-events", `{"traceEvents":[]}`, "no events"},
		{"negative-dur", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"tid":0}]}`, "negative duration"},
		{"negative-ts", `{"traceEvents":[{"name":"x","ph":"X","ts":-5,"dur":1,"tid":0}]}`, "negative timestamp"},
		{"bad-phase", `{"traceEvents":[{"name":"x","ph":"B","ts":0,"dur":1,"tid":0}]}`, "unexpected phase"},
		{"unknown-transport", `{"traceEvents":[{"name":"send","cat":"warp","ph":"X","ts":0,"dur":1,"tid":0}]}`, "unknown transport class"},
		{"ckpt-wrong-class", `{"traceEvents":[{"name":"checkpoint","cat":"p2p","ph":"X","ts":0,"dur":1,"tid":0}]}`, "checkpoint interval charged"},
		{"recovery-wrong-class", `{"traceEvents":[{"name":"recovery","cat":"sync","ph":"X","ts":0,"dur":1,"tid":0}]}`, "recovery interval charged"},
		{"ckpt-class-misused", `{"traceEvents":[{"name":"send","cat":"ckpt","ph":"X","ts":0,"dur":1,"tid":0}]}`, "carries op"},
		{"packed-put-wrong-class", `{"traceEvents":[{"name":"put.p","cat":"pio","ph":"X","ts":0,"dur":1,"tid":0}]}`, "packed transfer"},
		{"packed-get-wrong-class", `{"traceEvents":[{"name":"get.p","cat":"dma","ph":"X","ts":0,"dur":1,"tid":0}]}`, "packed transfer"},
		{"pack-class-misused", `{"traceEvents":[{"name":"put.s","cat":"pack","ph":"X","ts":0,"dur":1,"tid":0}]}`, "carries op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := validate("t.json", []byte(c.data), 0, mesh.Geometry{})
			if err == nil {
				t.Fatalf("accepted %s input", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestUnknownTransportNamedError: the rejection is the named sentinel,
// so callers can branch on it with errors.Is.
func TestUnknownTransportNamedError(t *testing.T) {
	_, err := validate("t.json", []byte(`{"traceEvents":[{"name":"send","cat":"warp","ph":"X","ts":0,"dur":1,"tid":0}]}`), 0, mesh.Geometry{})
	if !errors.Is(err, errUnknownTransport) {
		t.Fatalf("got %v, want errUnknownTransport", err)
	}
}

// A trace with tracks beyond the pinned rank count is a trace from a
// different machine: the rejection is the named errRankMismatch. The
// compiler's pseudo-rank -1 track is exempt.
func TestValidateRankMismatch(t *testing.T) {
	if _, err := validate("t.json", []byte(goodTrace), 4, mesh.Geometry{}); err != nil {
		t.Fatalf("trace spanning ranks 0-1 rejected for -ranks 4: %v", err)
	}
	_, err := validate("t.json", []byte(goodTrace), 1, mesh.Geometry{})
	if !errors.Is(err, errRankMismatch) {
		t.Fatalf("got %v, want errRankMismatch", err)
	}
	const withCompiler = `{"traceEvents":[
 {"name":"parse","ph":"X","ts":0,"dur":3,"tid":-1},
 {"name":"send","ph":"X","ts":0,"dur":10,"tid":0,"args":{"bytes":64}}
]}`
	if _, err := validate("t.json", []byte(withCompiler), 1, mesh.Geometry{}); err != nil {
		t.Fatalf("compiler track tripped the rank check: %v", err)
	}
}

// A -dims geometry smaller than the trace's rank span (or the pinned
// -ranks) is the named mesh.ErrGeometryMismatch; one with a dimension
// below 1 is mesh.ErrBadGeometry.
func TestValidateGeometryMismatch(t *testing.T) {
	grid := func(dims ...int) mesh.Geometry { return mesh.Geometry{Dims: dims} }
	if _, err := validate("t.json", []byte(goodTrace), 0, grid(2, 1)); err != nil {
		t.Fatalf("2x1 geometry rejected for a 2-rank trace: %v", err)
	}
	_, err := validate("t.json", []byte(goodTrace), 0, grid(1, 1))
	if !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("got %v, want mesh.ErrGeometryMismatch", err)
	}
	_, err = validate("t.json", []byte(goodTrace), 64, grid(4, 4, 2))
	if !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("pinned ranks beyond geometry: got %v, want mesh.ErrGeometryMismatch", err)
	}
	if _, err := validate("t.json", []byte(goodTrace), 64, grid(4, 4, 4)); err != nil {
		t.Fatalf("64 ranks on 4x4x4 rejected: %v", err)
	}
	_, err = validate("t.json", []byte(goodTrace), 0, grid(2, 0))
	if !errors.Is(err, mesh.ErrBadGeometry) {
		t.Fatalf("zero dimension: got %v, want mesh.ErrBadGeometry", err)
	}
}

// TestValidateCoalescedTrace: a coalesced run's exported trace — with
// its put.p/get.p bursts on the pack transport next to the plain
// strided PIO traffic they replaced — passes validation.
func TestValidateCoalescedTrace(t *testing.T) {
	const coalescedTrace = `{"displayTimeUnit":"ns","traceEvents":[
 {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
 {"name":"put.p","cat":"pack","ph":"X","ts":0,"dur":10,"tid":0,"args":{"bytes":800}},
 {"name":"get.p","cat":"pack","ph":"X","ts":12,"dur":8,"tid":0,"args":{"bytes":320}},
 {"name":"put.s","cat":"pio","ph":"X","ts":22,"dur":4,"tid":0,"args":{"bytes":64}}
]}`
	out, err := validate("t.json", []byte(coalescedTrace), 0, mesh.Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 events") {
		t.Errorf("summary missing expected content:\n%s", out)
	}
}

// TestValidateResilientTrace: a real -resilient run's exported trace —
// with its checkpoint and recovery intervals on the ckpt and recovery
// transports — passes validation.
func TestValidateResilientTrace(t *testing.T) {
	const resilientTrace = `{"displayTimeUnit":"ns","traceEvents":[
 {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
 {"name":"checkpoint","cat":"ckpt","ph":"X","ts":0,"dur":10,"tid":0},
 {"name":"recovery","cat":"recovery","ph":"X","ts":12,"dur":5,"tid":0},
 {"name":"bcast","cat":"p2p","ph":"X","ts":20,"dur":5,"tid":0,"args":{"bytes":64}}
]}`
	out, err := validate("t.json", []byte(resilientTrace), 0, mesh.Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 events") {
		t.Errorf("summary missing expected content:\n%s", out)
	}
}
