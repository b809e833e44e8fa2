// Package obs holds the tracing vocabulary shared by the serving tier:
// Flight, the cross-process tree a serving edge assembles for one held
// query (flight.go); the W3C trace context that carries a query's
// trace across processes (tracectx.go); and the serving tier's one
// latency histogram (histogram.go).
//
// The engine builds no spans: it times its stages with its own clock
// into search.StageTimes, which every reply carries, per query and per
// shard leg. A flight is drawn from those stage times, and ids and
// parent links are attached only when it is assembled.
//
// The package depends only on the standard library and is usable from
// any layer above the engine without import cycles.
package obs

// Attr is one integer-valued attribute of a flight span (shard and
// replica ordinals, byte counts, a failure flag). Values are int64 so
// byte counts and durations both fit; string values are deliberately
// unsupported to keep spans flat.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}
