// Command vbtrace validates and summarizes a Chrome trace-event JSON
// file written by vbrun -trace or vbcc -trace. It exits non-zero with
// a clear message when the file is malformed, truncated, or contains
// no events, which makes it the CI smoke check for the tracing
// pipeline:
//
//	vbrun -trace out.json prog.f && vbtrace out.json
//
// -ranks pins the expected rank count: any non-compiler track outside
// [0, ranks) fails validation. -dims pins the mesh geometry ("16x8x8"):
// a geometry too small for the trace's ranks fails. Both catch a trace
// replayed against the wrong machine configuration.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/mesh"
	"vbuscluster/internal/trace"
)

type traceFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// errUnknownTransport rejects events whose transport class (the
// Chrome "cat" field) is not registered in internal/interconnect.
// New classes — like the checkpoint and recovery transports — must be
// added there explicitly before their traces validate.
var errUnknownTransport = errors.New("unknown transport class")

// errRankMismatch rejects a trace whose tracks fall outside the rank
// count pinned with -ranks.
var errRankMismatch = errors.New("rank count mismatch")

func main() {
	ranks := flag.Int("ranks", 0, "expected rank count; tracks outside [0, ranks) fail validation (0 = don't check)")
	dimsFlag := flag.String("dims", "", "expected mesh geometry, e.g. 16x8x8; too small for the trace's ranks fails ('' = don't check)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vbtrace [-ranks N] [-dims WxHxD] trace.json")
		os.Exit(2)
	}
	var geo mesh.Geometry
	if *dimsFlag != "" {
		var err error
		if geo, err = mesh.ParseGeometry(*dimsFlag); err != nil {
			fail("-dims: " + err.Error())
		}
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err.Error())
	}
	summary, err := validate(flag.Arg(0), data, *ranks, geo)
	if err != nil {
		fail(err.Error())
	}
	fmt.Print(summary)
}

// validate checks a trace file's structure and returns the printable
// per-track summary. Every way the file can be wrong — empty,
// truncated mid-object, trailing garbage, wrong shape, negative
// durations, unknown phases — yields a descriptive error. ranks > 0
// pins the expected rank count (errRankMismatch); a geometry with
// dimensions must hold the trace's ranks (mesh.ErrGeometryMismatch).
func validate(name string, data []byte, ranks int, geo mesh.Geometry) (string, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return "", fmt.Errorf("%s: empty trace file", name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var tf traceFile
	if err := dec.Decode(&tf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return "", fmt.Errorf("%s: truncated trace JSON (file ends mid-object)", name)
		}
		return "", fmt.Errorf("%s: invalid trace JSON: %v", name, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return "", fmt.Errorf("%s: trailing data after the trace object", name)
	}
	if len(tf.TraceEvents) == 0 {
		return "", fmt.Errorf("%s: trace contains no events", name)
	}
	type track struct {
		name   string
		events int
		bytes  int64
		last   float64
	}
	tracks := map[int]*track{}
	for i, ev := range tf.TraceEvents {
		tr := tracks[ev.Tid]
		if tr == nil {
			tr = &track{}
			tracks[ev.Tid] = tr
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if n, ok := ev.Args["name"].(string); ok {
					tr.name = n
				}
			}
		case "X":
			if ev.Dur < 0 {
				return "", fmt.Errorf("%s: event %d (%q on tid %d) has negative duration %g",
					name, i, ev.Name, ev.Tid, ev.Dur)
			}
			if ev.Ts < 0 {
				return "", fmt.Errorf("%s: event %d (%q on tid %d) has negative timestamp %g",
					name, i, ev.Name, ev.Tid, ev.Ts)
			}
			if ev.Cat != "" {
				tp, ok := interconnect.TransportFromName(ev.Cat)
				if !ok {
					return "", fmt.Errorf("%s: event %d (%q on tid %d): %w %q",
						name, i, ev.Name, ev.Tid, errUnknownTransport, ev.Cat)
				}
				// Checkpoint and recovery intervals must be charged to
				// their dedicated transports, and vice versa, so profiles
				// never misattribute resilience cost.
				if err := checkResilienceClass(ev.Name, tp); err != nil {
					return "", fmt.Errorf("%s: event %d (tid %d): %w", name, i, ev.Tid, err)
				}
				// The same pinning holds for the pack-and-coalesce path.
				if err := checkPackClass(ev.Name, tp); err != nil {
					return "", fmt.Errorf("%s: event %d (tid %d): %w", name, i, ev.Tid, err)
				}
				// And for the eager/rendezvous protocol classes.
				if err := checkProtocolClass(ev.Name, tp); err != nil {
					return "", fmt.Errorf("%s: event %d (tid %d): %w", name, i, ev.Tid, err)
				}
			}
			tr.events++
			if b, ok := ev.Args["bytes"].(float64); ok {
				tr.bytes += int64(b)
			}
			if end := ev.Ts + ev.Dur; end > tr.last {
				tr.last = end
			}
		default:
			return "", fmt.Errorf("%s: event %d has unexpected phase %q (want \"X\" or \"M\")", name, i, ev.Ph)
		}
	}
	// Tracks map 1:1 to physical ranks (the compiler's pseudo-rank -1
	// track excepted), so a pinned rank count or geometry can be
	// checked against the trace itself.
	maxRank := -1
	for tid := range tracks {
		if tid > maxRank {
			maxRank = tid
		}
		if ranks > 0 && tid >= ranks {
			return "", fmt.Errorf("%s: %w: track tid %d outside the %d expected ranks",
				name, errRankMismatch, tid, ranks)
		}
	}
	if len(geo.Dims) > 0 {
		need := ranks
		if need == 0 {
			need = maxRank + 1
		}
		if err := geo.Check(need); err != nil {
			return "", fmt.Errorf("%s: trace needs %d ranks: %w", name, need, err)
		}
	}
	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d events\n", name, len(tf.TraceEvents))
	for _, tid := range tids {
		tr := tracks[tid]
		fmt.Fprintf(&sb, "  %-10s %6d events  %12d bytes  span %.3fus\n", tr.name, tr.events, tr.bytes, tr.last)
	}
	return sb.String(), nil
}

// checkResilienceClass pins the checkpoint/recovery operations to
// their dedicated transport classes in both directions: a checkpoint
// interval recorded on the p2p transport (or a send on the ckpt
// transport) means the runtime mischarged resilience cost.
func checkResilienceClass(op string, tp interconnect.Transport) error {
	switch {
	case op == trace.OpCheckpoint && tp != interconnect.TransportCkpt:
		return fmt.Errorf("checkpoint interval charged to transport %q, want %q", tp, interconnect.TransportCkpt)
	case op == trace.OpRecovery && tp != interconnect.TransportRecovery:
		return fmt.Errorf("recovery interval charged to transport %q, want %q", tp, interconnect.TransportRecovery)
	case tp == interconnect.TransportCkpt && op != trace.OpCheckpoint:
		return fmt.Errorf("transport %q carries op %q, want %q", tp, op, trace.OpCheckpoint)
	case tp == interconnect.TransportRecovery && op != trace.OpRecovery:
		return fmt.Errorf("transport %q carries op %q, want %q", tp, op, trace.OpRecovery)
	}
	return nil
}

// checkPackClass pins the coalesced put.p/get.p operations to the pack
// transport class in both directions: a packed transfer charged to the
// PIO path (or a plain strided put riding the pack class) means the
// runtime's coalescing decision and its accounting disagree.
func checkPackClass(op string, tp interconnect.Transport) error {
	packed := op == trace.OpPutPacked || op == trace.OpGetPacked
	switch {
	case packed && tp != interconnect.TransportPack:
		return fmt.Errorf("packed transfer %q charged to transport %q, want %q", op, tp, interconnect.TransportPack)
	case tp == interconnect.TransportPack && !packed:
		return fmt.Errorf("transport %q carries op %q, want %q or %q",
			tp, op, trace.OpPutPacked, trace.OpGetPacked)
	}
	return nil
}

// checkProtocolClass pins the eager/rendezvous transport classes of a
// protocol-switched fabric to the contiguous data movers: only put,
// get and send operations ride the protocol-switched path, so any
// other operation charged to "eager" or "rndv" means the runtime
// routed a non-contiguous (or non-data) operation through the
// protocol model.
func checkProtocolClass(op string, tp interconnect.Transport) error {
	if tp != interconnect.TransportEager && tp != interconnect.TransportRndv {
		return nil
	}
	switch op {
	case trace.OpPut, trace.OpGet, trace.OpSend:
		return nil
	}
	return fmt.Errorf("transport %q carries op %q, want %q, %q or %q",
		tp, op, trace.OpPut, trace.OpGet, trace.OpSend)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "vbtrace:", msg)
	os.Exit(1)
}
