package fault

import (
	"reflect"
	"strings"
	"testing"

	"vbuscluster/internal/sim"
)

func TestParseSpecTable(t *testing.T) {
	def := func(mut func(*Spec)) *Spec {
		s := &Spec{
			MTU:        DefaultMTU,
			Window:     DefaultWindow,
			MaxRetry:   DefaultMaxRetry,
			Backoff:    DefaultBackoff,
			BusTimeout: DefaultBusTimeout,
		}
		if mut != nil {
			mut(s)
		}
		return s
	}
	cases := []struct {
		in      string
		want    *Spec
		wantErr string
	}{
		{in: "seed=0", want: def(nil)},
		{in: "seed=42", want: def(func(s *Spec) { s.Seed = 42 })},
		{
			in: "seed=1,flitdrop=1e-3",
			want: def(func(s *Spec) {
				s.Seed = 1
				s.FlitDrop = 1e-3
			}),
		},
		{
			in: " seed=7 , corrupt=0.5 , busfail=1 ",
			want: def(func(s *Spec) {
				s.Seed = 7
				s.Corrupt = 0.5
				s.BusFail = 1
			}),
		},
		{
			in: "seed=1,linkdown=3-0@1ms+2us",
			want: def(func(s *Spec) {
				s.Seed = 1
				// Node pair is normalized to A <= B.
				s.LinkDowns = []LinkDown{{A: 0, B: 3, At: sim.Millisecond, Dur: 2 * sim.Microsecond}}
			}),
		},
		{
			in: "seed=1,slow=2*3.5,slow=0*2",
			want: def(func(s *Spec) {
				s.Seed = 1
				// Entries are sorted by rank.
				s.Slows = []Slow{{Rank: 0, Factor: 2}, {Rank: 2, Factor: 3.5}}
			}),
		},
		{
			in: "seed=1,crash=1@500us",
			want: def(func(s *Spec) {
				s.Seed = 1
				s.Crashes = []Crash{{Rank: 1, At: 500 * sim.Microsecond}}
			}),
		},
		{
			in: "seed=1,deadline=2ms,mtu=512,window=8,maxretry=3,backoff=1us,bustimeout=50us",
			want: def(func(s *Spec) {
				s.Seed = 1
				s.Deadline = 2 * sim.Millisecond
				s.MTU = 512
				s.Window = 8
				s.MaxRetry = 3
				s.Backoff = sim.Microsecond
				s.BusTimeout = 50 * sim.Microsecond
			}),
		},
		{in: "", wantErr: "empty spec"},
		{in: "   ", wantErr: "empty spec"},
		{in: "seed=1,,flitdrop=0.1", wantErr: "empty field"},
		{in: "seed", wantErr: "not key=value"},
		{in: "seed=", wantErr: "not key=value"},
		{in: "seed=abc", wantErr: "invalid syntax"},
		{in: "seed=-1", wantErr: "invalid syntax"},
		{in: "bogus=1", wantErr: "unknown key"},
		{in: "flitdrop=1.5", wantErr: "outside [0,1]"},
		{in: "flitdrop=-0.1", wantErr: "outside [0,1]"},
		{in: "corrupt=NaN", wantErr: "outside [0,1]"},
		{in: "linkdown=0-1", wantErr: "missing @"},
		{in: "linkdown=0@1ms+1ms", wantErr: "missing A-B"},
		{in: "linkdown=0-1@1ms", wantErr: "missing +duration"},
		{in: "linkdown=0-0@1ms+1ms", wantErr: "self-link"},
		{in: "linkdown=0-1@1ms+0ms", wantErr: "must be positive"},
		{in: "linkdown=-1-2@1ms+1ms", wantErr: "invalid syntax"},
		{in: "slow=1", wantErr: "missing *factor"},
		{in: "slow=1*0.5", wantErr: "must be >= 1"},
		{in: "slow=-1*2", wantErr: "non-negative"},
		{in: "crash=1", wantErr: "missing @time"},
		{in: "crash=-1@1ms", wantErr: "non-negative"},
		{in: "deadline=5", wantErr: "suffix"},
		{in: "deadline=5m", wantErr: "suffix"},
		{in: "deadline=-5ms", wantErr: "negative"},
		{in: "mtu=0", wantErr: "must be positive"},
		{in: "window=-2", wantErr: "must be positive"},
		{in: "maxretry=-1", wantErr: "must be >= 0"},
		{in: "backoff=1x", wantErr: "suffix"},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error containing %q, got %+v", tc.in, tc.wantErr, got)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q): error %q does not contain %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): unexpected error %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q):\n got  %+v\n want %+v", tc.in, got, tc.want)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []string{
		"seed=0",
		"seed=42,flitdrop=0.001,corrupt=0.0005,busfail=0.01",
		"seed=1,linkdown=0-1@1ms+2ms,linkdown=2-3@0ps+5us",
		"seed=9,slow=1*2,crash=2@40ms,deadline=1s",
		"seed=3,mtu=128,window=2,maxretry=1,backoff=500ns,bustimeout=1ms",
		"seed=0,crashafter=1/120",
		"seed=7,crash=3@80ms,crashafter=2/0,crashafter=1/64",
	}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q -> %q): %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("round trip of %q via %q:\n got  %+v\n want %+v", in, s.String(), again, s)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
		ok   bool
	}{
		{"0ps", 0, true},
		{"1ps", sim.Picosecond, true},
		{"250ns", 250 * sim.Nanosecond, true},
		{"1.5us", 1500 * sim.Nanosecond, true},
		{"2ms", 2 * sim.Millisecond, true},
		{"3s", 3 * sim.Second, true},
		{"", 0, false},
		{"5", 0, false},
		{"5m", 0, false},
		{"ns", 0, false},
		{"-1ms", 0, false},
		{"nans", 0, false},
		{"infs", 0, false},
		{"1e12s", 0, false}, // overflows sim.Time
	}
	for _, tc := range cases {
		got, err := ParseDuration(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseDuration(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseDuration(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFormatDurationRoundTrip(t *testing.T) {
	for _, d := range []sim.Time{
		0, 1, 999, 1000, 1500, sim.Nanosecond, 72 * sim.Nanosecond,
		sim.Microsecond, 28 * sim.Microsecond, sim.Millisecond,
		sim.Second, 3*sim.Second + sim.Picosecond,
	} {
		s := FormatDuration(d)
		got, err := ParseDuration(s)
		if err != nil {
			t.Fatalf("ParseDuration(FormatDuration(%d) = %q): %v", d, s, err)
		}
		if got != d {
			t.Errorf("round trip %d -> %q -> %d", d, s, got)
		}
	}
}

// FuzzParseFaultSpec asserts the parser never panics, and that any
// accepted spec is replayable: its canonical String() re-parses to an
// identical Spec (the property the fault injector's determinism
// guarantee rests on).
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=1",
		"seed=42,flitdrop=1e-3,corrupt=5e-4,busfail=0.01",
		"seed=1,linkdown=0-1@1ms+2ms,slow=2*3,crash=1@40ms",
		"seed=1,deadline=2ms,mtu=512,window=8,maxretry=3,backoff=1us,bustimeout=50us",
		"seed=1,crashafter=1/40,crashafter=0/7",
		"seed=9,linkdown=2-1@0ps+1ps,linkdown=0-3@5us+1ms",
		"seed=3,slow=3*1.5,slow=0*1,crash=2@0ps,crash=2@1s",
		"seed=1,flitdrop=1,corrupt=0,busfail=0",
		"seed=1,maxretry=0,bustimeout=1ps,backoff=1500us",
		"seed=,flitdrop=",
		"linkdown=0-1@+",
		"slow=*,crash=@",
		"crashafter=/,crashafter=1/-2",
		"deadline=999999999999s",
		"seed=1,,seed=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("canonical form %q is not a fixed point:\n got  %+v\n want %+v", canon, again, spec)
		}
		if again.String() != canon {
			t.Fatalf("String() not stable: %q vs %q", again.String(), canon)
		}
	})
}

// TestServerChaosTokens: the grammar describes the fabric only. The
// server-level tokens a job once used to panic, stall or kill its
// worker are unknown keys, wherever they sit in a spec and whatever
// their value.
func TestServerChaosTokens(t *testing.T) {
	for _, bad := range []string{
		"seed=1,panicjob=1",
		"seed=0,panicjob=true,stalljob=1500us",
		"panicjob=2,stalljob=-1ms,killworker=0",
		"seed=1,panicjob=maybe",
		"seed=7,stalljob=50ms,killworker=2",
		"seed=1,stalljob=5m",
		"seed=1,killworker=2",
		"seed=1,killworker=-1",
	} {
		_, err := ParseSpec(bad)
		if err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ParseSpec(%q) = %v, want an unknown key error", bad, err)
		}
	}
}

func TestCrashAfter(t *testing.T) {
	inj, err := FromString("seed=0,crashafter=2/40,crashafter=2/15,crashafter=0/0")
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Enabled() {
		t.Error("crashafter alone should enable the injector")
	}
	if !inj.HasCrashAfter() {
		t.Error("HasCrashAfter() = false")
	}
	// Duplicate entries keep the earliest threshold.
	if got := inj.CrashAfterOps(2); got != 15 {
		t.Errorf("CrashAfterOps(2) = %d, want 15", got)
	}
	if got := inj.CrashAfterOps(0); got != 0 {
		t.Errorf("CrashAfterOps(0) = %d, want 0", got)
	}
	// Unscheduled and out-of-range ranks never crash by count.
	for _, r := range []int{1, 3, -1} {
		if got := inj.CrashAfterOps(r); got != -1 {
			t.Errorf("CrashAfterOps(%d) = %d, want -1", r, got)
		}
	}
	// The nil injector is inert.
	var nilInj *Injector
	if nilInj.HasCrashAfter() || nilInj.CrashAfterOps(0) != -1 {
		t.Error("nil injector must report no crashafter faults")
	}
	// Rejections: malformed and negative forms.
	for _, bad := range []string{"seed=1,crashafter=1", "seed=1,crashafter=-1/5", "seed=1,crashafter=1/-5", "seed=1,crashafter=a/b"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}
