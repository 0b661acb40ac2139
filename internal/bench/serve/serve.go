// Package serve benchmarks the vbserve job service: a closed-loop
// client sweep, the seeded chaos gauntlet and the three-peer federation
// scenario, registered with the bench sweep registry as "serve",
// "chaos" and "peers". It lives below internal/bench so the bench
// package itself stays importable from the jobs package's tests (bench
// must not import jobs).
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/jobs"
)

// ServeRow is one closed-loop load level against an in-process job
// server: Clients loops of submit-and-wait over the mixed
// MM/SWIM/CFFT2INIT workload.
type ServeRow struct {
	Clients  int `json:"clients"`
	Clusters int `json:"clusters"`
	// Jobs is the number of jobs completed at this level.
	Jobs int `json:"jobs"`
	// WallSec is the host wall time of the whole level.
	WallSec float64 `json:"wall_seconds"`
	// JobsPerSec is the sustained service throughput.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50TotalMs / P99TotalMs are submit-to-done latency quantiles.
	P50TotalMs float64 `json:"p50_total_ms"`
	P99TotalMs float64 `json:"p99_total_ms"`
	// CacheHitRate is the plan cache's hit fraction over the level.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ColdCompiles counts front-end pipeline executions; with three
	// distinct programs it should stay 3 however many jobs ran.
	ColdCompiles int64 `json:"cold_compiles"`
}

// serveWorkload is the mixed job stream: the paper's trio at modest
// sizes, cycled per submission so every client interleaves programs.
func serveWorkload() []jobs.Spec {
	return []jobs.Spec{
		{Source: bench.MMSource(48), Procs: 4, Tenant: "sweep"},
		{Source: bench.SwimSource(64, 64), Procs: 4, Tenant: "sweep"},
		{Source: bench.CFFTSource(9), Procs: 4, Tenant: "sweep"},
	}
}

// ServeSweep drives a closed-loop workload against an in-process
// server at each client count: every client submits a job, waits for
// it, and immediately submits the next, jobsPerClient times. A fresh
// server per level makes levels independent (each pays exactly three
// cold compiles, then runs hot).
func ServeSweep(clientLevels []int, jobsPerClient, clusters int) ([]ServeRow, error) {
	mix := serveWorkload()
	var rows []ServeRow
	for _, clients := range clientLevels {
		srv := jobs.New(jobs.Config{
			Clusters: clusters,
			// The queue must absorb every client's one outstanding job:
			// closed-loop clients never trigger shedding by construction.
			QueueDepth: clients + 1,
		})
		var (
			mu     sync.Mutex
			totals []float64
			firstE error
		)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < jobsPerClient; i++ {
					j, err := srv.Submit(mix[(c+i)%len(mix)])
					if err == nil {
						<-j.Done()
						err = j.Err()
					}
					mu.Lock()
					if err != nil && firstE == nil {
						firstE = fmt.Errorf("bench: servesweep client %d job %d: %w", c, i, err)
					}
					if err == nil {
						totals = append(totals, j.Snapshot().TotalMs)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		if err := srv.Drain(context.Background()); err != nil {
			return nil, err
		}
		if firstE != nil {
			return nil, firstE
		}
		m := srv.Metrics()
		sort.Float64s(totals)
		row := ServeRow{
			Clients:      clients,
			Clusters:     clusters,
			Jobs:         len(totals),
			WallSec:      wall,
			P50TotalMs:   quantile(totals, 0.50),
			P99TotalMs:   quantile(totals, 0.99),
			CacheHitRate: m.Cache.HitRate,
			ColdCompiles: m.CompileColdMs.Count,
		}
		if wall > 0 {
			row.JobsPerSec = float64(row.Jobs) / wall
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// quantile reads the nearest-rank q-quantile from sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// serveFile is the checked-in document all three service sweeps report
// into, each under its own key.
const serveFile, serveSchema = "BENCH_serve.json", "vbbench-servesweep/v1"

// serveClusters is the simulated cluster (worker) count of the sweep.
const serveClusters = 4

func init() {
	bench.Register(bench.Sweep{Name: "serve", Run: runServeSweep,
		Doc: "closed-loop throughput vs client count against an in-process vbserve (BENCH_serve.json)"})
	bench.Register(bench.Sweep{Name: "chaos", Run: runChaos,
		Doc: "seeded hostile workload asserting the server's robustness invariants (BENCH_serve.json)"})
	bench.Register(bench.Sweep{Name: "peers", Run: runPeers,
		Doc: "three-peer federation: forwarding, mid-run kill, failover and rebalance assertions (BENCH_serve.json)"})
}

func runServeSweep(env bench.Env) (bench.Report, error) {
	rows, err := ServeSweep(bench.Sized(env.Quick, []int{1, 4}, []int{1, 2, 4, 8, 16}), bench.Sized(env.Quick, 8, 24), serveClusters)
	if err != nil {
		return bench.Report{}, err
	}
	t := bench.Table{
		Title:     "Service throughput (closed loop, MM48/SWIM64/CFFT9 mix, timing mode)",
		Header:    "clients  clusters  jobs    wall(s)  jobs/s   p50(ms)  p99(ms)  hit-rate  cold",
		RowFormat: "%-8d %-9d %-7d %-8.3f %-8.1f %-8.3f %-8.3f %-9.3f %d\n",
	}
	for _, r := range rows {
		t.Add(r.Clients, r.Clusters, r.Jobs, r.WallSec, r.JobsPerSec, r.P50TotalMs, r.P99TotalMs, r.CacheHitRate, r.ColdCompiles)
	}
	return bench.Report{
		Tables:  []bench.Table{t},
		Section: &bench.Section{File: serveFile, Schema: serveSchema, Key: "rows", Value: rows},
	}, nil
}
