package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ndss/internal/search"
)

// referenceRequest decodes data the way the server did before the
// codec existed, and still does for non-canonical bodies.
func referenceRequest(data []byte) (Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// sameOutcome fails unless the codec and encoding/json agree on both
// the value and the error text.
func sameOutcome(t *testing.T, data []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec decoded\n%#v\nencoding/json decoded\n%#v", data, got, want)
	}
}

// sameBytes fails unless the codec's encoding of v is json.Marshal's.
func sameBytes(t *testing.T, got []byte, err error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("codec encode error %v, json.Marshal error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("codec encoded\n%s\njson.Marshal encoded\n%s", got, want)
	}
}

// goldenResponses are, in order, an unsharded, a cached, an empty, a
// sharded and a sampled response, built as the server builds them: a
// miss's matches are [], and a sampled answer is like any other.
func goldenResponses() []Response {
	st, sharded := goldenStats(), goldenShardedStats()
	return []Response{
		{Matches: goldenMatches(), Stats: st},
		{Matches: goldenMatches(), Stats: st, Cached: true},
		{Matches: []search.Match{}},
		{Matches: goldenMatches(), Stats: sharded},
		{Matches: goldenMatches()[1:], Stats: st},
	}
}

// olderSpans is a span list as shards sent it before replies lost
// theirs: each process's stage spans on a sampled trace, plus a
// coordinator's shard_merge.
const olderSpans = `"spans":[{"name":"sketch","start_ns":0,"dur_ns":11000},` +
	`{"name":"gather","start_ns":13000,"dur_ns":300000,"attrs":[{"key":"io_bytes","val":65536}]},` +
	`{"name":"probe","start_ns":320000,"dur_ns":9000,"attrs":[{"key":"fn","val":3},{"key":"text","val":7}]}]`

// olderBodies pairs each golden response's body as an older shard sends
// it on a sampled trace — "spans" closing the stats object and, in a
// coordinator's reply, following every answered leg's start_ns — with
// the body without them.
func olderBodies(t testing.TB) (older, current [][]byte) {
	for _, r := range goldenResponses() {
		body, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(body), `"start_ns":5000,`, `"start_ns":5000,`+olderSpans+`,`, 1)
		end := strings.LastIndex(old, "}}")
		if r.Cached {
			end = strings.LastIndex(old, `},"cached"`)
		}
		old = old[:end] + "," + olderSpans + old[end:]
		older, current = append(older, []byte(old)), append(current, body)
	}
	return older, current
}

func goldenRequests() []Request {
	full := NewRequest([]uint32{1, 2, 4000000000}, search.Options{Theta: 0.8, MinLength: 30, PrefixFilter: true, Verify: true, Limit: 5})
	full.TimeoutMS, full.FloorTheta = 250, 0.5
	return []Request{full, NewRequest([]uint32{1, 2}, search.Options{Theta: 0.5})}
}

// The seeds cover the canonical bodies and every way out of the
// canonical form the decoder must hand to encoding/json.
var requestSeeds = []string{
	`{"tokens":[],"theta":1}`,
	`{"TOKENS":[1],"Theta":0.5}`,
	`{"tokens":[1],"theta":0.5}`,
	`{"tokens":[1],"theta":0.5,"bogus":1}`,
	`null`,
	`{"tokens":null,"theta":0.5}`,
	`{"tokens":[1],"tokens":[2,3],"theta":0.5}`,
	`{"tokens":[1,2,3],"theta":0.5,"theta":0.7,"tokens":[4],"verify":true,"verify":false}`,
	`{"tokens":[1],"theta":1e2,"min_length":1e2}`,
	`{"tokens":[-0],"theta":-0,"n":-0}`,
	`{"tokens":[01],"theta":0.5}`,
	`{"tokens":[4294967295,4294967296],"theta":0.5}`,
	`{"tokens":[1],"theta":0.5,"timeout_ms":9223372036854775808}`,
	`{"tokens":[1],"theta":1e400}`,
	`{"tokens":[1],"theta":0.5} trailing`,
	`{"tokens":[1],"theta":0.5}{"tokens":[2]}`,
	` {"tokens" : [ 1 , 2 ] , "theta" : 0.5 }`,
	`{"tokens":[1],"theta":"0.5"}`,
	`{"tokens":[1],"verify":True}`,
	`{"tokens":[1.0]}`,
	`{"tokens":[1],`,
	``,
}

var responseSeeds = []string{
	`{"matches":[],"stats":{"k":1},"cached":false}`,
	`{"Matches":[],"stats":{"K":1}}`,
	`{"matches":[{"text_id":1,"Start":2}]}`,
	`{"matches":[]}`,
	`{"matches":null,"stats":null}`,
	`{"matches":[{"text_id":1,"start":2}],"matches":[{"text_id":3}]}`,
	`{"matches":[{"text_id":1,"text_id":2}],"stats":{"k":1,"stages":{"plan_ns":1},"stages":{"sketch_ns":2},"k":3}}`,
	`{"stats":{"per_shard":[{"shard":"a"}]},"stats":{"per_shard":[{"answered":true}]}}`,
	`{"stats":{"spans":[{"name":"a","attrs":[{"key":"k","val":1}],"attrs":[{"key":"j"}]}]}}`,
	`{"matches":[{"text_id":1e2,"est_jaccard":1e2}]}`,
	`{"matches":[{"text_id":-0,"start":-0,"est_jaccard":-0}]}`,
	`{"matches":[{"text_id":01}]}`,
	`{"matches":[{"text_id":4294967296,"start":2147483648}]}`,
	`{"matches":[]} trailing`,
	`{"matches":[]}{}`,
	`{"matches":[],"extra":{"a":[1,"b"]}}`,
	`{"stats":{"per_shard":[{"shard":"a<b","spans":[{"name":"x","attrs":[{"key":"a","val":1},{"key":"b","val":2},{"key":"c","val":3}]}]}]}}`,
	`{"stats":{"spans":[{"name":"\xff"}]}}`,
	`{"stats":{"spans":[null]}}`,
	`null`,
	``,
}

func FuzzDecodeRequest(f *testing.F) {
	for _, r := range goldenRequests() {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Request
		err := DecodeRequest(data, &got)
		want, wantErr := referenceRequest(data)
		sameOutcome(t, data, got, want, err, wantErr)
		if err == nil {
			b, err := AppendRequest(nil, &got)
			sameBytes(t, b, err, got)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, r := range goldenResponses() {
		b, _ := json.Marshal(r)
		f.Add(b)
	}
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	older, _ := olderBodies(f)
	for _, b := range older {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Response
		err := DecodeResponse(data, &got)
		wantErr := json.Unmarshal(data, &want)
		sameOutcome(t, data, got, want, err, wantErr)
		if err == nil {
			b, err := AppendResponse(nil, &got)
			sameBytes(t, b, err, got)
		}
	})
}

// TestCodecCarriesEveryField fills every field with a distinct value
// and checks both directions of the codec against encoding/json, so a
// field added to the wire types fails here until the codec carries it.
func TestCodecCarriesEveryField(t *testing.T) {
	var next int64
	var resp Response
	var req Request
	for _, p := range []any{&resp, &req} {
		fill(reflect.ValueOf(p).Elem(), &next)
	}
	// Awkward strings go through the HTML-escaping path.
	resp.Stats.PerShard[0].Shard = "dir/<s1>&\"x\"\\\n\t\x01 é\xff"

	b, err := AppendResponse(nil, &resp)
	sameBytes(t, b, err, resp)
	var gotResp, wantResp Response
	err = DecodeResponse(b, &gotResp)
	sameOutcome(t, b, gotResp, wantResp, err, json.Unmarshal(b, &wantResp))

	b, err = AppendRequest(nil, &req)
	sameBytes(t, b, err, req)
	var gotReq Request
	err = DecodeRequest(b, &gotReq)
	wantReq, wantErr := referenceRequest(b)
	sameOutcome(t, b, gotReq, wantReq, err, wantErr)
	if !reflect.DeepEqual(gotReq, req) {
		t.Errorf("request did not round-trip: sent %+v, got %+v", req, gotReq)
	}
}

// TestCodecFloatsAndFailures covers the float formats around
// encoding/json's switch to exponent form, and the non-finite values
// only encoding/json can refuse.
func TestCodecFloatsAndFailures(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e13, -2.5e-9, 1.0 / 3} {
		m := Response{Matches: []search.Match{{EstJaccard: f, Jaccard: -f}}}
		b, err := AppendResponse(nil, &m)
		sameBytes(t, b, err, m)
		r := Request{Theta: f, FloorTheta: f}
		b, err = AppendRequest(nil, &r)
		sameBytes(t, b, err, r)
	}
	nan := Response{Matches: []search.Match{{Jaccard: (func() float64 { z := 0.0; return z / z })()}}}
	b, err := AppendResponse([]byte("kept"), &nan)
	sameBytes(t, nil, err, nan)
	if string(b) != "kept" {
		t.Errorf("a failed encode left %q, want the input untouched", b)
	}
}

// TestDecodeOlderShardSpans is a mixed-version rollout: a shard of an
// older release sends "spans" in its stats, and in every answered
// per_shard entry of a coordinator's reply, on a sampled trace. Such a
// reply decodes to the Response of the same body without them.
func TestDecodeOlderShardSpans(t *testing.T) {
	older, current := olderBodies(t)
	for i := range older {
		if bytes.Equal(older[i], current[i]) || bytes.Count(older[i], []byte(`"spans"`)) != 1+bytes.Count(current[i], []byte(`"span_id":"00f0`)) {
			t.Fatalf("response %d: older body did not gain its span lists:\n%s", i, older[i])
		}
		var got, want Response
		if err := DecodeResponse(older[i], &got); err != nil {
			t.Fatalf("response %d: %v decoding\n%s", i, err, older[i])
		}
		if err := DecodeResponse(current[i], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d: with spans decoded\n%#v\nwithout\n%#v", i, got, want)
		}
	}
}

// TestCodecNoFallbackOnCanonical pins that the bodies the serving tier
// decodes, requests and leaf shards' replies, never take the
// encoding/json path: a decode that allocates as much as encoding/json's
// would show the fast path is not taken.
func TestCodecNoFallbackOnCanonical(t *testing.T) {
	req := benchRequest()
	reqBody, _ := json.Marshal(req)
	resp := benchResponse()
	respBody, _ := json.Marshal(resp)
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"request", 1, func() { var r Request; _ = DecodeRequest(reqBody, &r) }},
		{"response", 2, func() { var r Response; _ = DecodeResponse(respBody, &r) }},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got > tc.max {
			t.Errorf("%s decode: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}

// benchRequest is the benchmark's query shape: 64 tokens.
func benchRequest() Request {
	q := make([]uint32, 64)
	for i := range q {
		q[i] = uint32(i*7919) % 50000
	}
	r := NewRequest(q, search.Options{Theta: 0.8, Limit: 0})
	r.TimeoutMS = 4999
	return r
}

// benchResponse is one shard leg's answer: a planted match and the
// stats of an unsharded search.
func benchResponse() Response {
	return Response{Matches: goldenMatches()[:1], Stats: goldenStats()}
}

func BenchmarkWireCodec(b *testing.B) {
	reqBody, _ := json.Marshal(benchRequest())
	resp := benchResponse()
	respBody, _ := json.Marshal(resp)
	b.Run("request-decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Request
			if err := DecodeRequest(reqBody, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request-decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceRequest(reqBody); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendResponse(buf[:0], &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-encode/json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := DecodeResponse(respBody, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := json.Unmarshal(respBody, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCommaBodyAllocation pins that a token array of bare commas, which
// fails at its first element, cannot size a slice by its comma count.
func TestCommaBodyAllocation(t *testing.T) {
	body := []byte(`{"tokens":[` + strings.Repeat(",", 1<<20) + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Request
	err := DecodeRequest(body, &r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a comma-only token array decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("decoding a %d-byte comma body allocated %d bytes, want at most %d", len(body), got, 256<<10)
	}
}
