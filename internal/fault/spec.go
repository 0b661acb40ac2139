// Package fault is the deterministic fault injector of the simulated
// cluster: a seeded model of everything that can go wrong on a real
// V-Bus machine — corrupted or dropped flits, links that go down for an
// interval, nodes that run slow or crash, failed virtual-bus
// acquisition — scheduled entirely in virtual time so every run is
// replayable from a short spec string.
//
// A fault schedule is described by a comma-separated spec such as
//
//	seed=42,flitdrop=1e-3,corrupt=5e-4,linkdown=0-1@1ms+2ms,crash=3@80ms
//
// The grammar (all keys optional except seed; repeatable keys may
// appear more than once):
//
//	seed=N           PRNG seed; seed=0 disables all probabilistic faults
//	flitdrop=P       per-packet drop probability in [0,1]
//	corrupt=P        per-packet CRC-corruption probability in [0,1]
//	busfail=P        per-attempt V-Bus acquisition failure probability
//	linkdown=A-B@T+D link between nodes A and B is down during [T,T+D)
//	slow=R*F         rank R computes F times slower (F >= 1)
//	crash=R@T        rank R crashes at virtual time T
//	crashafter=R/N   rank R crashes after issuing N MPI operations
//	deadline=D       per-operation deadline for blocking MPI calls
//	mtu=N            reliable-transport packet size in bytes
//	window=N         go-back-N retransmission window in packets
//	maxretry=N       retransmission attempts before giving up
//	backoff=D        base retransmission backoff (doubles per attempt)
//	bustimeout=D     V-Bus acquisition timeout before p2p degradation
//
// Durations take a unit suffix: ps, ns, us, ms or s.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vbuscluster/internal/sim"
)

// Default transport parameters, chosen to sit near the card's real
// constants: MTU spans a few hundred 32-bit flits, the backoff starts
// around the card's small-message latency scale, and the bus timeout is
// a few broadcast times.
const (
	DefaultMTU        = 4096
	DefaultWindow     = 4
	DefaultMaxRetry   = 8
	DefaultBackoff    = 2 * sim.Microsecond
	DefaultBusTimeout = 100 * sim.Microsecond
)

// LinkDown takes the mesh link between two adjacent-or-not nodes out of
// service for a virtual-time interval. Any route crossing the A-B hop
// (in either direction) stalls until the link recovers.
type LinkDown struct {
	A, B int      // node IDs, normalized A <= B
	At   sim.Time // outage start
	Dur  sim.Time // outage length
}

// Until reports when the outage ends.
func (l LinkDown) Until() sim.Time { return l.At + l.Dur }

// Slow makes one rank's computation run slower by a constant factor.
type Slow struct {
	Rank   int
	Factor float64 // >= 1
}

// Crash stops one rank at a virtual time: every MPI operation the rank
// issues at or after At fails with a Crashed error.
type Crash struct {
	Rank int
	At   sim.Time
}

// CrashAfter stops one rank by operation count instead of wall time:
// the rank completes Ops MPI operations, then the next one fails with
// a Crashed error. Counting by operations lets tests and killsweeps
// target exact epoch boundaries independently of the fabric's timing.
type CrashAfter struct {
	Rank int
	Ops  int64
}

// Spec is a parsed fault schedule. The zero Spec (or any spec with
// Seed == 0 and no scheduled faults) injects nothing.
type Spec struct {
	Seed     uint64
	FlitDrop float64 // per-packet drop probability
	Corrupt  float64 // per-packet corruption probability
	BusFail  float64 // per-attempt bus-acquisition failure probability

	LinkDowns   []LinkDown
	Slows       []Slow
	Crashes     []Crash
	CrashAfters []CrashAfter

	Deadline sim.Time // 0 = no deadline

	MTU        int
	Window     int
	MaxRetry   int
	Backoff    sim.Time
	BusTimeout sim.Time
}

// ParseSpec parses the comma-separated fault grammar documented in the
// package comment. Unknown keys, malformed values and out-of-range
// probabilities are errors; transport parameters default when omitted.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{
		MTU:        DefaultMTU,
		Window:     DefaultWindow,
		MaxRetry:   DefaultMaxRetry,
		Backoff:    DefaultBackoff,
		BusTimeout: DefaultBusTimeout,
	}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fault: empty spec")
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("fault: empty field in spec %q", s)
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("fault: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "flitdrop":
			spec.FlitDrop, err = parseProb(key, val)
		case "corrupt":
			spec.Corrupt, err = parseProb(key, val)
		case "busfail":
			spec.BusFail, err = parseProb(key, val)
		case "linkdown":
			var ld LinkDown
			ld, err = parseLinkDown(val)
			spec.LinkDowns = append(spec.LinkDowns, ld)
		case "slow":
			var sl Slow
			sl, err = parseSlow(val)
			spec.Slows = append(spec.Slows, sl)
		case "crash":
			var cr Crash
			cr, err = parseCrash(val)
			spec.Crashes = append(spec.Crashes, cr)
		case "crashafter":
			var ca CrashAfter
			ca, err = parseCrashAfter(val)
			spec.CrashAfters = append(spec.CrashAfters, ca)
		case "deadline":
			spec.Deadline, err = ParseDuration(val)
		case "mtu":
			spec.MTU, err = parsePositiveInt(key, val)
		case "window":
			spec.Window, err = parsePositiveInt(key, val)
		case "maxretry":
			spec.MaxRetry, err = strconv.Atoi(val)
			if err == nil && spec.MaxRetry < 0 {
				err = fmt.Errorf("fault: maxretry must be >= 0, got %d", spec.MaxRetry)
			}
		case "backoff":
			spec.Backoff, err = ParseDuration(val)
		case "bustimeout":
			spec.BusTimeout, err = ParseDuration(val)
		default:
			return nil, fmt.Errorf("fault: unknown key %q in spec", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: field %q: %w", field, err)
		}
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec.normalize()
	return spec, nil
}

func (s *Spec) validate() error {
	for _, ld := range s.LinkDowns {
		if ld.A < 0 || ld.B < 0 {
			return fmt.Errorf("fault: linkdown nodes %d-%d must be non-negative", ld.A, ld.B)
		}
		if ld.A == ld.B {
			return fmt.Errorf("fault: linkdown %d-%d is a self-link", ld.A, ld.B)
		}
		if ld.Dur <= 0 {
			return fmt.Errorf("fault: linkdown duration %v must be positive", ld.Dur)
		}
	}
	for _, sl := range s.Slows {
		if sl.Rank < 0 {
			return fmt.Errorf("fault: slow rank %d must be non-negative", sl.Rank)
		}
		if sl.Factor < 1 {
			return fmt.Errorf("fault: slow factor %g must be >= 1", sl.Factor)
		}
	}
	for _, cr := range s.Crashes {
		if cr.Rank < 0 {
			return fmt.Errorf("fault: crash rank %d must be non-negative", cr.Rank)
		}
	}
	for _, ca := range s.CrashAfters {
		if ca.Rank < 0 {
			return fmt.Errorf("fault: crashafter rank %d must be non-negative", ca.Rank)
		}
		if ca.Ops < 0 {
			return fmt.Errorf("fault: crashafter op count %d must be non-negative", ca.Ops)
		}
	}
	if s.Deadline < 0 {
		return fmt.Errorf("fault: negative deadline %v", s.Deadline)
	}
	return nil
}

// normalize puts repeatable entries in canonical order so String() is a
// stable replay key and two equivalent specs compare equal.
func (s *Spec) normalize() {
	for i := range s.LinkDowns {
		if s.LinkDowns[i].A > s.LinkDowns[i].B {
			s.LinkDowns[i].A, s.LinkDowns[i].B = s.LinkDowns[i].B, s.LinkDowns[i].A
		}
	}
	sort.Slice(s.LinkDowns, func(i, j int) bool {
		a, b := s.LinkDowns[i], s.LinkDowns[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.At < b.At
	})
	sort.Slice(s.Slows, func(i, j int) bool { return s.Slows[i].Rank < s.Slows[j].Rank })
	sort.Slice(s.Crashes, func(i, j int) bool {
		if s.Crashes[i].Rank != s.Crashes[j].Rank {
			return s.Crashes[i].Rank < s.Crashes[j].Rank
		}
		return s.Crashes[i].At < s.Crashes[j].At
	})
	sort.Slice(s.CrashAfters, func(i, j int) bool {
		if s.CrashAfters[i].Rank != s.CrashAfters[j].Rank {
			return s.CrashAfters[i].Rank < s.CrashAfters[j].Rank
		}
		return s.CrashAfters[i].Ops < s.CrashAfters[j].Ops
	})
}

// String renders the spec in the canonical parseable form: seed first,
// then every non-default field in grammar order. ParseSpec(s.String())
// reproduces s exactly.
func (s *Spec) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	if s.FlitDrop != 0 {
		parts = append(parts, fmt.Sprintf("flitdrop=%g", s.FlitDrop))
	}
	if s.Corrupt != 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", s.Corrupt))
	}
	if s.BusFail != 0 {
		parts = append(parts, fmt.Sprintf("busfail=%g", s.BusFail))
	}
	for _, ld := range s.LinkDowns {
		parts = append(parts, fmt.Sprintf("linkdown=%d-%d@%s+%s",
			ld.A, ld.B, FormatDuration(ld.At), FormatDuration(ld.Dur)))
	}
	for _, sl := range s.Slows {
		parts = append(parts, fmt.Sprintf("slow=%d*%g", sl.Rank, sl.Factor))
	}
	for _, cr := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%s", cr.Rank, FormatDuration(cr.At)))
	}
	for _, ca := range s.CrashAfters {
		parts = append(parts, fmt.Sprintf("crashafter=%d/%d", ca.Rank, ca.Ops))
	}
	if s.Deadline != 0 {
		parts = append(parts, "deadline="+FormatDuration(s.Deadline))
	}
	if s.MTU != DefaultMTU {
		parts = append(parts, fmt.Sprintf("mtu=%d", s.MTU))
	}
	if s.Window != DefaultWindow {
		parts = append(parts, fmt.Sprintf("window=%d", s.Window))
	}
	if s.MaxRetry != DefaultMaxRetry {
		parts = append(parts, fmt.Sprintf("maxretry=%d", s.MaxRetry))
	}
	if s.Backoff != DefaultBackoff {
		parts = append(parts, "backoff="+FormatDuration(s.Backoff))
	}
	if s.BusTimeout != DefaultBusTimeout {
		parts = append(parts, "bustimeout="+FormatDuration(s.BusTimeout))
	}
	return strings.Join(parts, ",")
}

func parseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 || p != p {
		return 0, fmt.Errorf("fault: %s probability %g outside [0,1]", key, p)
	}
	return p, nil
}

func parsePositiveInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("fault: %s must be positive, got %d", key, n)
	}
	return n, nil
}

// parseLinkDown parses "A-B@T+D".
func parseLinkDown(val string) (LinkDown, error) {
	nodes, when, ok := strings.Cut(val, "@")
	if !ok {
		return LinkDown{}, fmt.Errorf("missing @start+duration in %q", val)
	}
	as, bs, ok := strings.Cut(nodes, "-")
	if !ok {
		return LinkDown{}, fmt.Errorf("missing A-B node pair in %q", val)
	}
	a, err := strconv.Atoi(as)
	if err != nil {
		return LinkDown{}, err
	}
	b, err := strconv.Atoi(bs)
	if err != nil {
		return LinkDown{}, err
	}
	ts, ds, ok := strings.Cut(when, "+")
	if !ok {
		return LinkDown{}, fmt.Errorf("missing +duration in %q", val)
	}
	at, err := ParseDuration(ts)
	if err != nil {
		return LinkDown{}, err
	}
	dur, err := ParseDuration(ds)
	if err != nil {
		return LinkDown{}, err
	}
	return LinkDown{A: a, B: b, At: at, Dur: dur}, nil
}

// parseSlow parses "R*F".
func parseSlow(val string) (Slow, error) {
	rs, fs, ok := strings.Cut(val, "*")
	if !ok {
		return Slow{}, fmt.Errorf("missing *factor in %q", val)
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return Slow{}, err
	}
	f, err := strconv.ParseFloat(fs, 64)
	if err != nil {
		return Slow{}, err
	}
	if f != f {
		return Slow{}, fmt.Errorf("slow factor is NaN")
	}
	return Slow{Rank: r, Factor: f}, nil
}

// parseCrash parses "R@T".
func parseCrash(val string) (Crash, error) {
	rs, ts, ok := strings.Cut(val, "@")
	if !ok {
		return Crash{}, fmt.Errorf("missing @time in %q", val)
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return Crash{}, err
	}
	at, err := ParseDuration(ts)
	if err != nil {
		return Crash{}, err
	}
	if at < 0 {
		return Crash{}, fmt.Errorf("negative crash time %v", at)
	}
	return Crash{Rank: r, At: at}, nil
}

// parseCrashAfter parses "R/N".
func parseCrashAfter(val string) (CrashAfter, error) {
	rs, ns, ok := strings.Cut(val, "/")
	if !ok {
		return CrashAfter{}, fmt.Errorf("missing /op-count in %q", val)
	}
	r, err := strconv.Atoi(rs)
	if err != nil {
		return CrashAfter{}, err
	}
	n, err := strconv.ParseInt(ns, 10, 64)
	if err != nil {
		return CrashAfter{}, err
	}
	return CrashAfter{Rank: r, Ops: n}, nil
}

// durUnits maps suffix to scale, longest suffixes first so "ms" is not
// read as "m"+"s".
var durUnits = []struct {
	suffix string
	scale  sim.Time
}{
	{"ps", sim.Picosecond},
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

// ParseDuration parses a virtual-time duration with a mandatory unit
// suffix (ps, ns, us, ms, s). Fractional values are allowed and rounded
// to the nearest picosecond.
func ParseDuration(s string) (sim.Time, error) {
	for _, u := range durUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		// "5m" + "s" must not parse as minutes; reject a trailing unit
		// letter left in the numeric part.
		if c := num[len(num)-1]; c < '0' || c > '9' {
			if c != '.' {
				continue
			}
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: %w", s, err)
		}
		if f < 0 || f != f {
			return 0, fmt.Errorf("bad duration %q: negative or NaN", s)
		}
		prod := f*float64(u.scale) + 0.5
		// float64(sim.MaxTime) rounds to 2^63; anything at or above it
		// cannot be converted portably.
		if prod >= float64(sim.MaxTime) {
			return 0, fmt.Errorf("bad duration %q: overflows virtual time", s)
		}
		return sim.Time(prod), nil
	}
	return 0, fmt.Errorf("bad duration %q: need a ps/ns/us/ms/s suffix", s)
}

// FormatDuration renders t exactly in the largest unit that divides it,
// so ParseDuration(FormatDuration(t)) == t for all non-negative t.
func FormatDuration(t sim.Time) string {
	for _, u := range []struct {
		suffix string
		scale  sim.Time
	}{
		{"s", sim.Second},
		{"ms", sim.Millisecond},
		{"us", sim.Microsecond},
		{"ns", sim.Nanosecond},
	} {
		if t != 0 && t%u.scale == 0 {
			return fmt.Sprintf("%d%s", t/u.scale, u.suffix)
		}
	}
	return fmt.Sprintf("%dps", t)
}
