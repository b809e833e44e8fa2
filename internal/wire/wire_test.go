package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndss/internal/index"
	"ndss/internal/obs"
	"ndss/internal/search"
)

// The golden literals below were produced at the commit before this
// package existed, by that commit's own structs and map literals
// (server.searchResponse/statsJSON/matchJSON/errorResponse, the
// /explain and /healthz map[string]any bodies, shard.wireRequest) over
// exactly these fixtures. They are the public format: a diff here is a
// wire break, not a test to update.

func goldenMatches() []search.Match {
	return []search.Match{
		{TextID: 7, Start: 3, End: 66, Collisions: 29, EstJaccard: 0.90625, Jaccard: 0.875, Rects: []search.Rect{{}}},
		{TextID: 4000000000, Start: 0, End: 24, Collisions: 26, EstJaccard: 0.8125},
	}
}

func goldenStats() search.Stats {
	return search.Stats{
		K: 32, Beta: 26, ShortLists: 29, LongLists: 3, Candidates: 5, Probed: 4, Rects: 9, Matches: 2,
		IOBytes: 65536, IOTime: 120 * time.Microsecond, CPUTime: 880 * time.Microsecond, Total: time.Millisecond,
		StageTimes: search.StageTimes{
			Sketch: 11 * time.Microsecond, Plan: 2 * time.Microsecond, Gather: 300 * time.Microsecond,
			Count: 600 * time.Microsecond, Merge: 40 * time.Microsecond, Verify: 47 * time.Microsecond,
		},
	}
}

func goldenSpans() []obs.Span {
	var tr obs.Trace
	tr.Reset()
	tr.Record("sketch", 0, 11*time.Microsecond)
	id := tr.Record("gather", 13*time.Microsecond, 300*time.Microsecond)
	tr.Annotate(id, "io_bytes", 65536)
	id = tr.Record("probe", 320*time.Microsecond, 9*time.Microsecond)
	tr.Annotate(id, "fn", 3)
	tr.Annotate(id, "text", 7)
	return tr.Snapshot(nil)
}

func goldenShardedStats() search.Stats {
	st := goldenStats()
	st.ShardsTotal, st.ShardsAnswered = 2, 1
	st.PerShard = []search.ShardStats{
		{
			Shard: "http://s0a|http://s0b", Answered: true, Matches: 2,
			IOBytes: 65536, IOTime: 120 * time.Microsecond, Total: 3 * time.Millisecond,
			StageTimes: st.StageTimes, SpanID: "00f067aa0ba902b7", Start: 5 * time.Microsecond,
			Spans: goldenSpans()[:1],
			Attempts: []search.ShardAttempt{
				{Replica: "http://s0a", ReplicaIdx: 0, Attempt: 0, Err: "http 503: draining", SpanID: "b7ad6b7169203331", Start: 0, Dur: time.Millisecond},
				{Replica: "http://s0b", ReplicaIdx: 1, Attempt: 1, Start: 1100 * time.Microsecond, Dur: 1900 * time.Microsecond},
				{Replica: "http://s0a", ReplicaIdx: 0, Attempt: 2, Hedge: true, Err: "canceled", Start: 2 * time.Millisecond, Dur: time.Millisecond},
			},
		},
		{Shard: "dir/<s1>&x", Err: "deadline exceeded", Total: 50 * time.Millisecond},
	}
	// The replica hand-off field never crosses the wire.
	st.Attempts = []search.ShardAttempt{{Replica: "never-encoded"}}
	return st
}

func goldenMeta() index.Meta {
	return index.Meta{K: 32, Seed: 42, T: 25, NumTexts: 2000, TotalTokens: 512000, ZoneMapStep: 64, LongListCutoff: 4096}
}

func goldenPlan() *search.Plan {
	return &search.Plan{Long: []bool{true, false, true}, NumLong: 2, Cutoff: 4096, Beta: 26, Alpha: 24}
}

// encode renders v the way the server's writeJSON does.
func encode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestGoldenBytes(t *testing.T) {
	st, sharded := goldenStats(), goldenShardedStats()
	cached := NewResponse(goldenMatches(), &st)
	cached.Cached = true
	sampled := NewResponse(goldenMatches()[1:], &st)
	sampled.Stats.Spans = goldenSpans()
	meta := goldenMeta()
	q := []uint32{1, 2, 4000000000}
	fullReq := NewRequest(q, search.Options{
		Theta: 0.8, MinLength: 30, PrefixFilter: true, LongListThreshold: 100,
		CostBasedPrefix: true, Verify: true, KeepRects: true, Trace: true,
	})
	fullReq.TimeoutMS, fullReq.N, fullReq.FloorTheta = 250, 5, 0.5

	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"unsharded response", NewResponse(goldenMatches(), &st), "{\"matches\":[{\"text_id\":7,\"start\":3,\"end\":66,\"collisions\":29,\"est_jaccard\":0.90625,\"jaccard\":0.875},{\"text_id\":4000000000,\"start\":0,\"end\":24,\"collisions\":26,\"est_jaccard\":0.8125}],\"stats\":{\"k\":32,\"beta\":26,\"short_lists\":29,\"long_lists\":3,\"candidates\":5,\"probed\":4,\"matches\":2,\"io_bytes\":65536,\"io_time_ns\":120000,\"cpu_time_ns\":880000,\"total_ns\":1000000,\"stages\":{\"sketch_ns\":11000,\"plan_ns\":2000,\"gather_ns\":300000,\"count_ns\":600000,\"merge_ns\":40000,\"verify_ns\":47000}}}\n"},
		{"cached response", cached, "{\"matches\":[{\"text_id\":7,\"start\":3,\"end\":66,\"collisions\":29,\"est_jaccard\":0.90625,\"jaccard\":0.875},{\"text_id\":4000000000,\"start\":0,\"end\":24,\"collisions\":26,\"est_jaccard\":0.8125}],\"stats\":{\"k\":32,\"beta\":26,\"short_lists\":29,\"long_lists\":3,\"candidates\":5,\"probed\":4,\"matches\":2,\"io_bytes\":65536,\"io_time_ns\":120000,\"cpu_time_ns\":880000,\"total_ns\":1000000,\"stages\":{\"sketch_ns\":11000,\"plan_ns\":2000,\"gather_ns\":300000,\"count_ns\":600000,\"merge_ns\":40000,\"verify_ns\":47000}},\"cached\":true}\n"},
		{"empty response", NewResponse(nil, &search.Stats{}), "{\"matches\":[],\"stats\":{\"k\":0,\"beta\":0,\"short_lists\":0,\"long_lists\":0,\"candidates\":0,\"probed\":0,\"matches\":0,\"io_bytes\":0,\"io_time_ns\":0,\"cpu_time_ns\":0,\"total_ns\":0,\"stages\":{\"sketch_ns\":0,\"plan_ns\":0,\"gather_ns\":0,\"count_ns\":0,\"merge_ns\":0,\"verify_ns\":0}}}\n"},
		{"sharded response", NewResponse(goldenMatches(), &sharded), "{\"matches\":[{\"text_id\":7,\"start\":3,\"end\":66,\"collisions\":29,\"est_jaccard\":0.90625,\"jaccard\":0.875},{\"text_id\":4000000000,\"start\":0,\"end\":24,\"collisions\":26,\"est_jaccard\":0.8125}],\"stats\":{\"k\":32,\"beta\":26,\"short_lists\":29,\"long_lists\":3,\"candidates\":5,\"probed\":4,\"matches\":2,\"io_bytes\":65536,\"io_time_ns\":120000,\"cpu_time_ns\":880000,\"total_ns\":1000000,\"stages\":{\"sketch_ns\":11000,\"plan_ns\":2000,\"gather_ns\":300000,\"count_ns\":600000,\"merge_ns\":40000,\"verify_ns\":47000},\"shards_total\":2,\"shards_answered\":1,\"per_shard\":[{\"shard\":\"http://s0a|http://s0b\",\"answered\":true,\"matches\":2,\"io_bytes\":65536,\"io_time_ns\":120000,\"total_ns\":3000000,\"stages\":{\"sketch_ns\":11000,\"plan_ns\":2000,\"gather_ns\":300000,\"count_ns\":600000,\"merge_ns\":40000,\"verify_ns\":47000},\"span_id\":\"00f067aa0ba902b7\",\"start_ns\":5000,\"spans\":[{\"name\":\"sketch\",\"start_ns\":0,\"dur_ns\":11000}],\"attempts\":[{\"replica\":\"http://s0a\",\"replica_idx\":0,\"attempt\":0,\"err\":\"http 503: draining\",\"span_id\":\"b7ad6b7169203331\",\"start_ns\":0,\"dur_ns\":1000000},{\"replica\":\"http://s0b\",\"replica_idx\":1,\"attempt\":1,\"start_ns\":1100000,\"dur_ns\":1900000},{\"replica\":\"http://s0a\",\"replica_idx\":0,\"attempt\":2,\"hedge\":true,\"err\":\"canceled\",\"start_ns\":2000000,\"dur_ns\":1000000}]},{\"shard\":\"dir/\\u003cs1\\u003e\\u0026x\",\"answered\":false,\"err\":\"deadline exceeded\",\"matches\":0,\"io_bytes\":0,\"io_time_ns\":0,\"total_ns\":50000000,\"stages\":{\"sketch_ns\":0,\"plan_ns\":0,\"gather_ns\":0,\"count_ns\":0,\"merge_ns\":0,\"verify_ns\":0}}]}}\n"},
		{"sampled response", sampled, "{\"matches\":[{\"text_id\":4000000000,\"start\":0,\"end\":24,\"collisions\":26,\"est_jaccard\":0.8125}],\"stats\":{\"k\":32,\"beta\":26,\"short_lists\":29,\"long_lists\":3,\"candidates\":5,\"probed\":4,\"matches\":2,\"io_bytes\":65536,\"io_time_ns\":120000,\"cpu_time_ns\":880000,\"total_ns\":1000000,\"stages\":{\"sketch_ns\":11000,\"plan_ns\":2000,\"gather_ns\":300000,\"count_ns\":600000,\"merge_ns\":40000,\"verify_ns\":47000},\"spans\":[{\"name\":\"sketch\",\"start_ns\":0,\"dur_ns\":11000},{\"name\":\"gather\",\"start_ns\":13000,\"dur_ns\":300000,\"attrs\":[{\"key\":\"io_bytes\",\"val\":65536}]},{\"name\":\"probe\",\"start_ns\":320000,\"dur_ns\":9000,\"attrs\":[{\"key\":\"fn\",\"val\":3},{\"key\":\"text\",\"val\":7}]}]}}\n"},
		{"plan", NewPlan(goldenPlan()), "{\"alpha\":24,\"beta\":26,\"cutoff\":4096,\"long\":[true,false,true],\"num_long\":2}\n"},
		{"plan without long lists", NewPlan(&search.Plan{Beta: 16, Alpha: 16}), "{\"alpha\":16,\"beta\":16,\"cutoff\":0,\"long\":null,\"num_long\":0}\n"},
		{"health 200", Health{BuildID: "b-1f3a", Index: &meta, Status: "ok"}, "{\"build_id\":\"b-1f3a\",\"index\":{\"k\":32,\"seed\":42,\"t\":25,\"num_texts\":2000,\"total_tokens\":512000,\"zone_map_step\":64,\"long_list_cutoff\":4096},\"status\":\"ok\"}\n"},
		{"health 503", Health{BuildID: "b-1f3a", Index: &meta, Status: "shutting_down"}, "{\"build_id\":\"b-1f3a\",\"index\":{\"k\":32,\"seed\":42,\"t\":25,\"num_texts\":2000,\"total_tokens\":512000,\"zone_map_step\":64,\"long_list_cutoff\":4096},\"status\":\"shutting_down\"}\n"},
		{"error with request id", Error{Error: "theta must be in (0, 1], got 1.5", RequestID: "a1b2c3d4-00002a"}, "{\"error\":\"theta must be in (0, 1], got 1.5\",\"request_id\":\"a1b2c3d4-00002a\"}\n"},
		{"error without request id", Error{Error: "deadline exceeded"}, "{\"error\":\"deadline exceeded\"}\n"},
		// The shard client marshals requests without the encoder's
		// trailing newline.
		{"full request", fullReq, "{\"tokens\":[1,2,4000000000],\"theta\":0.8,\"min_length\":30,\"prefix_filter\":true,\"long_list_threshold\":100,\"cost_based\":true,\"verify\":true,\"timeout_ms\":250,\"n\":5,\"floor_theta\":0.5}" + "\n"},
		{"minimal request", NewRequest(q[:2], search.Options{Theta: 0.5}), "{\"tokens\":[1,2],\"theta\":0.5}" + "\n"},
	} {
		if got := encode(t, tc.v); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// notOnWire lists the search-side fields that deliberately never cross
// the wire. Every other field of the converted types must survive
// encode → JSON → decode, so a field added to search.Stats or
// search.Match fails here until it is either carried or listed.
var notOnWire = map[string]string{
	"Match.Rects":       "raw rectangles are a library-only option (KeepRects)",
	"Stats.Rects":       "the rectangle count is library-only, like the rectangles",
	"Stats.Attempts":    "replica→coordinator hand-off, moved into PerShard before any response exists",
	"Options.KeepRects": "rectangles are never served",
	"Options.Trace":     "span shipping follows the traceparent header, not the body",
}

// fill sets every settable field reachable from v to a distinct
// non-zero value, so a dropped or swapped field shows in the diff.
func fill(v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(*next)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) / 4)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(string(rune('a' + *next%26)))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), next)
		fill(v.Index(1), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i), next)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String() + " in " + v.Type().String())
	}
}

// checkRoundTrip compares got to the filled original field by field.
func checkRoundTrip(t *testing.T, orig, got any) {
	t.Helper()
	ov, gv := reflect.ValueOf(orig), reflect.ValueOf(got)
	typ := ov.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Name() + "." + typ.Field(i).Name
		if _, skip := notOnWire[name]; skip {
			if !gv.Field(i).IsZero() {
				t.Errorf("%s is listed as not on the wire but came back as %v", name, gv.Field(i))
			}
			continue
		}
		if !reflect.DeepEqual(ov.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s did not survive the wire: sent %+v, got %+v (carry it in package wire or list it in notOnWire)",
				name, ov.Field(i), gv.Field(i))
		}
	}
}

// viaJSON pushes v through its JSON form into out.
func viaJSON(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

func TestEveryFieldCrossesTheWire(t *testing.T) {
	var next int64
	var (
		m    search.Match
		st   search.Stats
		opts search.Options
		plan search.Plan
	)
	for _, p := range []any{&m, &st, &opts, &plan} {
		fill(reflect.ValueOf(p).Elem(), &next)
	}

	resp := NewResponse([]search.Match{m}, &st)
	if resp.Stats.Spans != nil {
		t.Error("NewResponse attached the span list; shipping it is the caller's (sampled-only) decision")
	}
	resp.Stats.Spans = st.Spans
	var back Response
	viaJSON(t, resp, &back)
	gotMatches, gotStats := back.Result()
	checkRoundTrip(t, m, gotMatches[0])
	checkRoundTrip(t, st, *gotStats)

	var req Request
	viaJSON(t, NewRequest([]uint32{1}, opts), &req)
	checkRoundTrip(t, opts, req.Options())

	var wp Plan
	viaJSON(t, NewPlan(&plan), &wp)
	checkRoundTrip(t, plan, *wp.SearchPlan())

	for name := range notOnWire {
		typ, field, _ := strings.Cut(name, ".")
		var ok bool
		for _, v := range []any{m, st, opts, plan} {
			if rt := reflect.TypeOf(v); rt.Name() == typ {
				_, ok = rt.FieldByName(field)
			}
		}
		if !ok {
			t.Errorf("notOnWire lists %s, which no longer exists", name)
		}
	}
}
