package shard

import "ndss/internal/obs"

// Metrics is a point-in-time snapshot of the coordinator's shard-level
// counters, consumed by the server's /metrics exposition.
type Metrics struct {
	// PartialResults counts queries that returned with at least one
	// shard unanswered.
	PartialResults int64
	// Shards holds one entry per shard in fan-out order.
	Shards []ShardMetrics
}

// ShardMetrics is one shard's cumulative request accounting.
type ShardMetrics struct {
	// Shard is the shard's name (index directory or URL); it is
	// configuration, never request-derived, so it is safe as a metric
	// label value.
	Shard    string
	BuildID  string
	Requests int64
	Errors   int64
	// Latency is the shard's fan-out leg latency histogram.
	Latency obs.HistogramSnapshot
	// ReplicaSet is the replica-level breakdown when this shard is
	// served by a ReplicaSet; nil for single-replica shards.
	ReplicaSet *ReplicaSetMetrics
}

// ReplicaSetMetrics is one replica group's resilience accounting.
type ReplicaSetMetrics struct {
	// HedgeWins counts legs where the speculative second attempt
	// answered before the first.
	HedgeWins int64
	// Replicas holds one entry per replica in configuration order.
	Replicas []ReplicaMetrics
}

// ReplicaMetrics is one replica's attempt accounting and routing
// state. Replica names come from configuration, never from requests,
// so they are safe as metric label values.
type ReplicaMetrics struct {
	Replica  string
	BuildID  string
	Requests int64 // every attempt launched at this replica
	Errors   int64 // attempts that failed (cancellations excluded)
	Retries  int64 // attempts that were retries of a failed attempt
	Hedges   int64 // attempts that were speculative hedges
	// Breaker is the replica's current circuit-breaker state.
	Breaker BreakerState
	// Quarantined reports the replica is excluded from routing because
	// its build id or index metadata diverges from its group.
	Quarantined bool
}

// ShardMetrics snapshots the coordinator's per-shard counters. The
// server's /metrics handler discovers this method on its Backend to
// render the ndss_shard_* metric families.
func (c *Coordinator) ShardMetrics() Metrics {
	out := Metrics{
		PartialResults: c.partials.Load(),
		Shards:         make([]ShardMetrics, len(c.slots)),
	}
	for i, sl := range c.slots {
		out.Shards[i] = ShardMetrics{
			Shard:    sl.client.Name(),
			BuildID:  sl.client.BuildID(),
			Requests: sl.requests.Load(),
			Errors:   sl.errors.Load(),
			Latency:  sl.lat.Load(),
		}
		if rp, ok := sl.client.(interface{ ReplicaMetrics() ReplicaSetMetrics }); ok {
			rm := rp.ReplicaMetrics()
			out.Shards[i].ReplicaSet = &rm
		}
	}
	return out
}
