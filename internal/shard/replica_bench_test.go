package shard_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"ndss/internal/search"
	"ndss/internal/shard"
	"ndss/internal/shard/netfault"
)

// BenchmarkReplicaScenarios measures what each replica-tier mechanism
// buys. The topology is 2 doc ranges × 2 replicas behind one
// Coordinator, served over loopback ndss-serve instances through the
// chaos fixture's fault-injecting transport. Every cell runs b.N
// sequential queries, each under a 250 ms deadline, with one scripted
// fault scenario (on replica 0 of range 0 unless noted) and one
// configuration variant: all-on is the production default with the
// background prober started, every other variant switches exactly one
// mechanism off.
//
// Reported per cell:
//
//	p50-ms, p99-ms  client-observed query latency, failures included
//	failed          share of queries that returned an error
//	partial         share of queries answered with a range missing
//	amp             replica attempts ÷ legs (2 legs per query)
//	r0-late         recover only: replica 0's share of range 0's
//	                attempts in the last quarter of the run (0 means it
//	                never rejoined rotation)
//
// Run it with
//
//	go test -run '^$' -bench ReplicaScenarios -benchtime 2000x ./internal/shard/
//
// EXPERIMENTS.md ("Replica tier") records the rows and what each
// mechanism was found to buy.
func BenchmarkReplicaScenarios(b *testing.B) {
	for _, sc := range replicaScenarios {
		for _, v := range replicaVariants {
			b.Run(sc.name+"/"+v.name, func(b *testing.B) { runReplicaCell(b, sc, v) })
		}
	}
}

const replicaQueryDeadline = 250 * time.Millisecond

type replicaScenario struct {
	name string
	// apply scripts the faults before a run of n queries.
	apply func(ft *netfault.Transport, hosts [][2]string, n int)
	// recover, when set, runs before the query at a quarter of the run.
	recover func(ft *netfault.Transport, hosts [][2]string)
}

// everyNth scripts f on every nth request to target for the whole run:
// a query's leg makes at most three attempts (primary, retry, hedge),
// plus whatever the prober adds, so 4n+64 entries outlast it.
func everyNth(ft *netfault.Transport, target string, nth, n int, f netfault.Fault) {
	script := make([]netfault.Fault, 4*n+64)
	for i := nth - 1; i < len(script); i += nth {
		script[i] = f
	}
	ft.Script(target, script...)
}

var replicaScenarios = []replicaScenario{
	{name: "healthy", apply: func(*netfault.Transport, [][2]string, int) {}},
	{name: "slow", apply: func(ft *netfault.Transport, hosts [][2]string, n int) {
		everyNth(ft, hosts[0][0], 10, n, netfault.Fault{Kind: netfault.Delay, Delay: 20 * time.Millisecond})
	}},
	{name: "dead", apply: func(ft *netfault.Transport, hosts [][2]string, _ int) {
		ft.SetAll(hosts[0][0], netfault.Fault{Kind: netfault.Reset})
	}},
	{name: "flapping", apply: func(ft *netfault.Transport, hosts [][2]string, n int) {
		everyNth(ft, hosts[0][0], 2, n, netfault.Fault{Kind: netfault.Status, Status: 503})
	}},
	{name: "blackhole", apply: func(ft *netfault.Transport, hosts [][2]string, _ int) {
		ft.SetAll(hosts[0][0], netfault.Fault{Kind: netfault.BlackHole})
	}},
	{name: "range-dead", apply: func(ft *netfault.Transport, hosts [][2]string, _ int) {
		ft.SetAll(hosts[0][0], netfault.Fault{Kind: netfault.Reset})
		ft.SetAll(hosts[0][1], netfault.Fault{Kind: netfault.Reset})
	}},
	{name: "recover",
		apply: func(ft *netfault.Transport, hosts [][2]string, _ int) {
			ft.SetAll(hosts[0][0], netfault.Fault{Kind: netfault.Reset})
		},
		recover: func(ft *netfault.Transport, hosts [][2]string) { ft.Clear(hosts[0][0]) },
	},
}

type replicaVariant struct {
	name     string
	cfg      shard.ReplicaConfig
	noProber bool
}

var replicaVariants = []replicaVariant{
	{name: "all-on"},
	{name: "-hedge", cfg: shard.ReplicaConfig{HedgeDelayMin: -1}},
	{name: "-breaker", cfg: shard.ReplicaConfig{BreakerFailures: 1 << 30}},
	{name: "-prober", noProber: true},
}

func runReplicaCell(b *testing.B, sc replicaScenario, v replicaVariant) {
	cfg := v.cfg
	cfg.Seed = 1
	f := newReplicaFixture(b, 2, cfg)
	defer f.coord.Close() // stop this run's prober before the next run's topology starts
	if !v.noProber {
		f.coord.StartProbers(context.Background())
	}
	sc.apply(f.ft, f.hosts, b.N)
	queries := f.queries()
	lat := make([]time.Duration, b.N)
	var failed, partial int
	var lateStart [2]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.recover != nil && i == b.N/4 {
			sc.recover(f.ft, f.hosts)
		}
		if i == b.N*3/4 {
			lateStart = range0Requests(f)
		}
		ctx, cancel := context.WithTimeout(context.Background(), replicaQueryDeadline)
		start := time.Now()
		_, st, err := f.coord.SearchContext(ctx, queries[i%len(queries)], search.Options{Theta: 0.5})
		lat[i] = time.Since(start)
		cancel()
		switch {
		case err != nil:
			failed++
		case st.Partial():
			partial++
		}
	}
	b.StopTimer()

	var attempts int64
	for _, rs := range f.sets {
		for _, rep := range rs.ReplicaMetrics().Replicas {
			attempts += rep.Requests
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
	n := float64(b.N)
	b.ReportMetric(ms(0.50), "p50-ms")
	b.ReportMetric(ms(0.99), "p99-ms")
	b.ReportMetric(float64(failed)/n, "failed")
	b.ReportMetric(float64(partial)/n, "partial")
	b.ReportMetric(float64(attempts)/(2*n), "amp")
	if sc.recover != nil {
		end := range0Requests(f)
		r0, r1 := end[0]-lateStart[0], end[1]-lateStart[1]
		if r0+r1 > 0 {
			b.ReportMetric(float64(r0)/float64(r0+r1), "r0-late")
		} else {
			b.ReportMetric(0, "r0-late")
		}
	}
}

// range0Requests snapshots the attempt counters of range 0's replicas.
func range0Requests(f *chaosFixture) (out [2]int64) {
	for j, rep := range f.sets[0].ReplicaMetrics().Replicas {
		out[j] = rep.Requests
	}
	return out
}
