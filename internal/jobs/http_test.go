package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vbuscluster/internal/bench"
)

func postJob(t *testing.T, url string, spec Spec, wait bool) (*http.Response, View) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/jobs"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &v)
	return resp, v
}

// TestHTTPSubmitCacheHitAndTrace walks the full API surface the README
// documents: submit-and-wait twice (second is a cache hit), fetch the
// job record, export its Chrome trace, read the metrics.
func TestHTTPSubmitCacheHitAndTrace(t *testing.T) {
	s := New(Config{Clusters: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := Spec{Source: bench.MMSource(16), Trace: true, Tenant: "web"}
	resp, v1 := postJob(t, ts.URL, spec, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	if v1.State != StateDone || v1.CacheHit {
		t.Fatalf("first job: state=%s hit=%t, want done/false", v1.State, v1.CacheHit)
	}
	resp, v2 := postJob(t, ts.URL, spec, true)
	if resp.StatusCode != http.StatusOK || !v2.CacheHit {
		t.Fatalf("repeat submit: status %d hit=%t, want 200/true", resp.StatusCode, v2.CacheHit)
	}
	if v2.CompileMs > v1.CompileMs/10 {
		t.Fatalf("hit compile %.3fms vs cold %.3fms over HTTP: want <= 1/10", v2.CompileMs, v1.CompileMs)
	}

	// Job record round-trips.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID)
	if err != nil || jr.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %v status=%d", err, jr.StatusCode)
	}
	jr.Body.Close()
	if r, _ := http.Get(ts.URL + "/v1/jobs/j-999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", r.StatusCode)
	}

	// The trace endpoint serves loadable Chrome trace JSON.
	tr, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/trace")
	if err != nil || tr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %v status=%d", err, tr.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tr.Body.Close()
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}

	// Metrics reflect the two jobs.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if m.Completed != 2 || m.Cache.Hits != 1 || m.Tenants["web"].Completed != 2 {
		t.Fatalf("metrics: completed=%d hits=%d tenant=%d", m.Completed, m.Cache.Hits, m.Tenants["web"].Completed)
	}
}

// TestHTTPLoadShedding429: a saturated queue answers 429 with a
// Retry-After hint, the shedding contract of the issue.
func TestHTTPLoadShedding429(t *testing.T) {
	s := newServer(Config{Clusters: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, ts.URL, mmSpec("flood"), false)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("admit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp, _ := postJob(t, ts.URL, mmSpec("flood"), false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.startWorkers(1)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPBadRequests: malformed bodies and invalid specs are 400s,
// not 500s, and unknown fields are rejected loudly.
func TestHTTPBadRequests(t *testing.T) {
	s := New(Config{Clusters: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A fault spec describes the fabric only: a token that would make
	// the job panic, stall or kill its worker is an unknown key.
	withFaults := func(faults string) string {
		return fmt.Sprintf(`{"source": %q, "faults": %q}`, bench.MMSource(8), faults)
	}
	for name, tc := range map[string]struct{ body, msg string }{
		"not json":      {body: "PROGRAM MM"},
		"empty source":  {body: `{"source": ""}`},
		"bad fabric":    {body: fmt.Sprintf(`{"source": %q, "fabric": "token-ring"}`, bench.MMSource(8))},
		"unknown field": {body: fmt.Sprintf(`{"source": %q, "turbo": true}`, bench.MMSource(8))},
		"panicjob":      {withFaults("panicjob=1"), "unknown key"},
		"stalljob":      {withFaults("seed=1,stalljob=10s"), "unknown key"},
		"killworker":    {withFaults("seed=1,killworker=2"), "unknown key"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || !strings.Contains(eb.Error.Message, tc.msg) {
			t.Fatalf("%s: envelope %+v (%v), want a message naming %q", name, eb, err, tc.msg)
		}
	}
}

// TestHTTPHealthzFlipsOnDrain: the health endpoint is the load
// balancer's drain signal.
func TestHTTPHealthzFlipsOnDrain(t *testing.T) {
	s := New(Config{Clusters: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if r, _ := http.Get(ts.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthy server: status %d", r.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r, _ := http.Get(ts.URL + "/healthz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", r.StatusCode)
	}
	resp, _ := postJob(t, ts.URL, mmSpec("late"), false)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}
