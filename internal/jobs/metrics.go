package jobs

import (
	"sort"
	"sync"
	"time"
)

// sampler keeps a bounded ring of latency samples (milliseconds) and
// computes percentiles over the retained window. 4096 samples bound
// both memory and the sort cost of a snapshot while giving p99 two
// significant digits.
type sampler struct {
	mu    sync.Mutex
	ring  [4096]float64
	next  int
	count int64
}

func (s *sampler) add(d time.Duration) {
	s.mu.Lock()
	s.ring[s.next] = ms(d)
	s.next = (s.next + 1) % len(s.ring)
	s.count++
	s.mu.Unlock()
}

// Quantiles summarizes one latency distribution.
type Quantiles struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func (s *sampler) quantiles() Quantiles {
	s.mu.Lock()
	n := int(s.count)
	if n > len(s.ring) {
		n = len(s.ring)
	}
	buf := make([]float64, n)
	if s.count <= int64(len(s.ring)) {
		copy(buf, s.ring[:n])
	} else {
		copy(buf, s.ring[:])
	}
	q := Quantiles{Count: s.count}
	s.mu.Unlock()
	if n == 0 {
		return q
	}
	sort.Float64s(buf)
	q.P50Ms = buf[percentileIndex(n, 50)]
	q.P99Ms = buf[percentileIndex(n, 99)]
	q.MaxMs = buf[n-1]
	return q
}

// percentileIndex is the nearest-rank index of percentile p in a
// sorted sample of n.
func percentileIndex(n, p int) int {
	idx := (n*p + 99) / 100 // ceil(n*p/100)
	if idx < 1 {
		idx = 1
	}
	if idx > n {
		idx = n
	}
	return idx - 1
}

// Metrics is the GET /metrics body.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Submitted     int64   `json:"jobs_submitted"`
	Completed     int64   `json:"jobs_completed"`
	Failed        int64   `json:"jobs_failed"`
	Shed          int64   `json:"jobs_shed"`
	// Cancelled counts deadline and explicit cancellations;
	// Quarantined counts jobs refused by an open circuit breaker
	// (neither is included in Failed).
	Cancelled   int64 `json:"jobs_cancelled"`
	Quarantined int64 `json:"jobs_quarantined"`
	// RateLimited counts submissions refused by token buckets (never
	// admitted, like Shed).
	RateLimited int64 `json:"jobs_rate_limited"`
	// Retries counts re-executions of transiently failed jobs;
	// PanicsRecovered counts worker panics converted to job failures;
	// BreakerTrips counts plan keys newly quarantined;
	// WorkersReplaced counts worker goroutines respawned after a
	// recovered panic unwound their stack.
	Retries         int64 `json:"retries"`
	PanicsRecovered int64 `json:"panics_recovered"`
	BreakerTrips    int64 `json:"breaker_trips"`
	WorkersReplaced int64 `json:"workers_replaced"`
	// JobsPerSec is completed jobs over uptime: the sustained service
	// throughput.
	JobsPerSec float64 `json:"jobs_per_sec"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_capacity"`
	Clusters   int     `json:"clusters"`
	Draining   bool    `json:"draining"`

	Cache   CacheStats             `json:"cache"`
	Tenants map[string]TenantStats `json:"tenants"`

	// CompileColdMs is plan-compile latency on cache misses (the full
	// front end + postpass); CompileHitMs is the cache-lookup latency
	// on hits. The ratio is the cache's whole value proposition.
	CompileColdMs Quantiles `json:"compile_cold_ms"`
	CompileHitMs  Quantiles `json:"compile_hit_ms"`
	RunMs         Quantiles `json:"run_ms"`
	// TotalMs is admission → completion (queueing included).
	TotalMs Quantiles `json:"total_ms"`
}
