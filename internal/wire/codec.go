package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"ndss/internal/search"
)

// The query messages, Request and Response, cross the wire on every hop
// of a sharded query, so they have a hand-written codec. The encoders
// append exactly the bytes json.Marshal writes. The decoders read the
// canonical form those encoders produce: exact-case known names, each
// once, plain numbers, bools, and ASCII strings without escapes. Any
// other input is handed whole to encoding/json, which stays the
// reference: every value and every error text is the one encoding/json
// gives. A response holding "per_shard" goes to encoding/json as well:
// only a coordinator fills it, and the serving tier's hops decode only
// leaf shards' replies. So does one holding "spans", the span list
// older shards send on a sampled trace: encoding/json skips the
// unknown member, so the reply decodes as if it were not there.
// Error and Health, and /explain's search.Plan, are rare and keep
// encoding/json.

// AppendRequest appends r as json.Marshal writes it. It fails only on a
// non-finite θ, with json.Marshal's error.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if !finite(r.Theta) || !finite(r.FloorTheta) {
		_, err := json.Marshal(r)
		return dst, err
	}
	dst = append(dst, `{"tokens":`...)
	if r.Tokens == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, tok := range r.Tokens {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(tok), 10)
		}
		dst = append(dst, ']')
	}
	dst = appendFloat(append(dst, `,"theta":`...), r.Theta)
	dst = appendIntOmit(dst, `,"min_length":`, int64(r.MinLength))
	dst = appendTrueOmit(dst, `,"prefix_filter":true`, r.PrefixFilter)
	dst = appendTrueOmit(dst, `,"verify":true`, r.Verify)
	dst = appendIntOmit(dst, `,"timeout_ms":`, int64(r.TimeoutMS))
	dst = appendIntOmit(dst, `,"n":`, int64(r.N))
	if r.FloorTheta != 0 {
		dst = appendFloat(append(dst, `,"floor_theta":`...), r.FloorTheta)
	}
	return append(dst, '}'), nil
}

// AppendResponse appends r as json.Marshal writes it. It fails only on
// a non-finite Jaccard estimate, with json.Marshal's error.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	for i := range r.Matches {
		if m := &r.Matches[i]; !finite(m.EstJaccard) || !finite(m.Jaccard) {
			_, err := json.Marshal(r)
			return dst, err
		}
	}
	dst = append(dst, `{"matches":`...)
	if r.Matches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Matches {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMatch(dst, &r.Matches[i])
		}
		dst = append(dst, ']')
	}
	dst = appendStats(append(dst, `,"stats":`...), &r.Stats)
	dst = appendTrueOmit(dst, `,"cached":true`, r.Cached)
	return append(dst, '}'), nil
}

func appendMatch(dst []byte, m *search.Match) []byte {
	dst = strconv.AppendUint(append(dst, `{"text_id":`...), uint64(m.TextID), 10)
	dst = appendInt(dst, `,"start":`, int64(m.Start))
	dst = appendInt(dst, `,"end":`, int64(m.End))
	dst = appendInt(dst, `,"collisions":`, int64(m.Collisions))
	dst = appendFloat(append(dst, `,"est_jaccard":`...), m.EstJaccard)
	if m.Jaccard != 0 {
		dst = appendFloat(append(dst, `,"jaccard":`...), m.Jaccard)
	}
	return append(dst, '}')
}

func appendStats(dst []byte, st *search.Stats) []byte {
	dst = appendInt(dst, `{"k":`, int64(st.K))
	dst = appendInt(dst, `,"beta":`, int64(st.Beta))
	dst = appendInt(dst, `,"short_lists":`, int64(st.ShortLists))
	dst = appendInt(dst, `,"long_lists":`, int64(st.LongLists))
	dst = appendInt(dst, `,"candidates":`, int64(st.Candidates))
	dst = appendInt(dst, `,"probed":`, int64(st.Probed))
	dst = appendInt(dst, `,"matches":`, int64(st.Matches))
	dst = appendInt(dst, `,"io_bytes":`, st.IOBytes)
	dst = appendInt(dst, `,"io_time_ns":`, int64(st.IOTime))
	dst = appendInt(dst, `,"cpu_time_ns":`, int64(st.CPUTime))
	dst = appendInt(dst, `,"total_ns":`, int64(st.Total))
	dst = appendStages(append(dst, `,"stages":`...), &st.StageTimes)
	dst = appendIntOmit(dst, `,"shards_total":`, int64(st.ShardsTotal))
	dst = appendIntOmit(dst, `,"shards_answered":`, int64(st.ShardsAnswered))
	if len(st.PerShard) > 0 {
		dst = append(dst, `,"per_shard":[`...)
		for i := range st.PerShard {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendShardStats(dst, &st.PerShard[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendStages(dst []byte, t *search.StageTimes) []byte {
	dst = appendInt(dst, `{"sketch_ns":`, int64(t.Sketch))
	dst = appendInt(dst, `,"plan_ns":`, int64(t.Plan))
	dst = appendInt(dst, `,"gather_ns":`, int64(t.Gather))
	dst = appendInt(dst, `,"count_ns":`, int64(t.Count))
	dst = appendInt(dst, `,"merge_ns":`, int64(t.Merge))
	dst = appendInt(dst, `,"verify_ns":`, int64(t.Verify))
	return append(dst, '}')
}

func appendShardStats(dst []byte, s *search.ShardStats) []byte {
	dst = appendString(append(dst, `{"shard":`...), s.Shard)
	dst = strconv.AppendBool(append(dst, `,"answered":`...), s.Answered)
	dst = appendStringOmit(dst, `,"err":`, s.Err)
	dst = appendInt(dst, `,"matches":`, int64(s.Matches))
	dst = appendInt(dst, `,"io_bytes":`, s.IOBytes)
	dst = appendInt(dst, `,"io_time_ns":`, int64(s.IOTime))
	dst = appendInt(dst, `,"total_ns":`, int64(s.Total))
	dst = appendStages(append(dst, `,"stages":`...), &s.StageTimes)
	dst = appendStringOmit(dst, `,"span_id":`, s.SpanID)
	dst = appendIntOmit(dst, `,"start_ns":`, int64(s.Start))
	if len(s.Attempts) > 0 {
		dst = append(dst, `,"attempts":[`...)
		for i := range s.Attempts {
			if i > 0 {
				dst = append(dst, ',')
			}
			a := &s.Attempts[i]
			dst = appendString(append(dst, `{"replica":`...), a.Replica)
			dst = appendInt(dst, `,"replica_idx":`, int64(a.ReplicaIdx))
			dst = appendInt(dst, `,"attempt":`, int64(a.Attempt))
			dst = appendTrueOmit(dst, `,"hedge":true`, a.Hedge)
			dst = appendStringOmit(dst, `,"err":`, a.Err)
			dst = appendStringOmit(dst, `,"span_id":`, a.SpanID)
			dst = appendInt(dst, `,"start_ns":`, int64(a.Start))
			dst = appendInt(dst, `,"dur_ns":`, int64(a.Dur))
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendIntOmit(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return appendInt(dst, key, v)
}

// appendTrueOmit appends member, which ends in true, when v is set.
func appendTrueOmit(dst []byte, member string, v bool) []byte {
	if !v {
		return dst
	}
	return append(dst, member...)
}

func appendStringOmit(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat formats f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' outside [1e-6, 1e21) with the exponent
// unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u escapes, invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// DecodeRequest decodes a request body as the server always has: a
// json.Decoder with DisallowUnknownFields reading the first JSON value
// of data, so bytes after that value are never looked at. r is
// overwritten.
func DecodeRequest(data []byte, r *Request) error {
	*r = Request{}
	d := decoder{b: data}
	if d.request(r) {
		return nil
	}
	// Decoding into a copy keeps r off the heap on the fast path.
	var ref Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&ref)
	*r = ref
	return err
}

// DecodeResponse decodes data as json.Unmarshal does. r is overwritten.
func DecodeResponse(data []byte, r *Response) error {
	*r = Response{}
	d := decoder{b: data}
	if d.response(r) && d.end() {
		return nil
	}
	var ref Response
	err := json.Unmarshal(data, &ref)
	*r = ref
	return err
}

// decoder is a cursor over one document in the canonical form. A step
// that meets anything else sets bad; every later step then does nothing
// and returns zero values, and the caller hands the document to
// encoding/json.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	b, i := d.b, d.i
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.i = i
			return c
		}
	}
	d.i = i
	return 0
}

func (d *decoder) eat(c byte) bool {
	if !d.bad && d.peek() == c {
		d.i++
		return true
	}
	d.bad = true
	return false
}

// first opens an object or array and reports whether a member follows;
// more ends a member and reports whether another one follows.
func (d *decoder) first(open, close byte) bool {
	if !d.eat(open) {
		return false
	}
	if d.peek() == close {
		d.i++
		return false
	}
	return true
}

func (d *decoder) more(close byte) bool {
	if d.bad {
		return false
	}
	switch d.peek() {
	case ',':
		d.i++
		return true
	case close:
		d.i++
		return false
	}
	d.bad = true
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.peek()
	return d.i == len(d.b)
}

// quoted reads a string without escapes, control or non-ASCII bytes
// and returns its contents, which alias the input.
func (d *decoder) quoted() []byte {
	if !d.eat('"') {
		return nil
	}
	b, start := d.b, d.i
	for i := start; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			d.i = i + 1
			return b[start:i]
		}
		if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	d.bad = true
	return nil
}

// key reads a member's name and the colon after it.
func (d *decoder) key() []byte {
	k := d.quoted()
	d.eat(':')
	return k
}

// once marks member f of the object being read as seen. A repeated
// scalar member is read as encoding/json reads it (the last one wins),
// but encoding/json decodes a repeated array of objects, or an object
// holding one, element by element into the first, which is not worth
// repeating here: a repeat of such a member defers to encoding/json.
func (d *decoder) once(seen *uint32, f uint) {
	if *seen&(1<<f) != 0 {
		d.bad = true
	}
	*seen |= 1 << f
}

func (d *decoder) string() string {
	return string(d.quoted())
}

func (d *decoder) bool() bool {
	if d.bad {
		return false
	}
	switch d.peek() {
	case 't':
		if bytes.HasPrefix(d.b[d.i:], []byte("true")) {
			d.i += 4
			return true
		}
	case 'f':
		if bytes.HasPrefix(d.b[d.i:], []byte("false")) {
			d.i += 5
			return false
		}
	}
	d.bad = true
	return false
}

// integer reads an optional minus (when signed) and up to 19 digits
// without a leading zero: encoding/json refuses a fraction or exponent
// for an integer field, so one is left for the member's end to reject.
func (d *decoder) integer(signed bool) (mag uint64, neg bool) {
	if d.bad {
		return 0, false
	}
	if d.peek() == '-' && signed {
		neg = true
		d.i++
	}
	b, start := d.b, d.i
	i := start
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mag = mag*10 + uint64(b[i]-'0')
	}
	d.i = i
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		d.bad = true
		return 0, false
	}
	return mag, neg
}

func (d *decoder) int64() int64 {
	mag, neg := d.integer(true)
	switch {
	case neg && mag <= 1<<63:
		return -int64(mag)
	case !neg && mag <= math.MaxInt64:
		return int64(mag)
	}
	d.bad = true
	return 0
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

func (d *decoder) int32() int32 {
	v := d.int64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.bad = true
	}
	return int32(v)
}

func (d *decoder) uint32() uint32 {
	mag, _ := d.integer(false)
	if mag > math.MaxUint32 {
		d.bad = true
	}
	return uint32(mag)
}

func (d *decoder) duration() time.Duration { return time.Duration(d.int64()) }

// digits reads one or more decimal digits.
func (d *decoder) digits() {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	if d.i == start {
		d.bad = true
	}
}

// float reads a JSON number and parses it as encoding/json does.
func (d *decoder) float() float64 {
	if d.bad {
		return 0
	}
	d.peek()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else {
		d.digits()
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		d.digits()
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		d.digits()
	}
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

func (d *decoder) request(r *Request) bool {
	for ok := d.first('{', '}'); ok; ok = d.more('}') {
		switch string(d.key()) {
		case "tokens":
			r.Tokens = d.tokens()
		case "theta":
			r.Theta = d.float()
		case "min_length":
			r.MinLength = d.int()
		case "prefix_filter":
			r.PrefixFilter = d.bool()
		case "verify":
			r.Verify = d.bool()
		case "timeout_ms":
			r.TimeoutMS = d.int()
		case "n":
			r.N = d.int()
		case "floor_theta":
			r.FloorTheta = d.float()
		default:
			d.bad = true
		}
	}
	return !d.bad
}

// maxPresizedTokens and maxPresizedMatches cap the first allocation of
// a token or match array, so a body of separators cannot buy a large
// slice before its first bad element.
const (
	maxPresizedTokens  = 1 << 12
	maxPresizedMatches = 1 << 10
)

// presize returns a first capacity for the array at the cursor: the
// count of sep up to the array's first ']', plus extra, at most limit.
func (d *decoder) presize(sep byte, extra, limit int) int {
	n := extra
	if !d.bad && d.peek() == '[' {
		rest := d.b[d.i:]
		if j := bytes.IndexByte(rest, ']'); j > 0 {
			n += bytes.Count(rest[:j], []byte{sep})
		}
	}
	return min(n, limit)
}

// tokens reads the token array, in one allocation up to
// maxPresizedTokens elements: a canonical array of integers has one
// more element than commas before its ']'.
func (d *decoder) tokens() []uint32 {
	out := make([]uint32, 0, d.presize(',', 1, maxPresizedTokens))
	for ok := d.first('[', ']'); ok; ok = d.more(']') {
		out = append(out, d.uint32())
	}
	return out
}

func (d *decoder) response(r *Response) bool {
	var seen uint32
	for ok := d.first('{', '}'); ok; ok = d.more('}') {
		switch string(d.key()) {
		case "matches":
			d.once(&seen, 0)
			// A served match is one flat object, so the array holds as
			// many matches as '{' before its ']'; an empty one stays a
			// non-nil empty list.
			r.Matches = make([]search.Match, 0, d.presize('{', 0, maxPresizedMatches))
			for ok := d.first('[', ']'); ok; ok = d.more(']') {
				r.Matches = append(r.Matches, search.Match{})
				d.match(&r.Matches[len(r.Matches)-1])
			}
		case "stats":
			d.once(&seen, 1)
			d.stats(&r.Stats)
		case "cached":
			r.Cached = d.bool()
		default:
			d.bad = true
		}
	}
	return !d.bad
}

func (d *decoder) match(m *search.Match) {
	for ok := d.first('{', '}'); ok; ok = d.more('}') {
		switch string(d.key()) {
		case "text_id":
			m.TextID = d.uint32()
		case "start":
			m.Start = d.int32()
		case "end":
			m.End = d.int32()
		case "collisions":
			m.Collisions = d.int()
		case "est_jaccard":
			m.EstJaccard = d.float()
		case "jaccard":
			m.Jaccard = d.float()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) stats(st *search.Stats) {
	for ok := d.first('{', '}'); ok; ok = d.more('}') {
		switch string(d.key()) {
		case "k":
			st.K = d.int()
		case "beta":
			st.Beta = d.int()
		case "short_lists":
			st.ShortLists = d.int()
		case "long_lists":
			st.LongLists = d.int()
		case "candidates":
			st.Candidates = d.int()
		case "probed":
			st.Probed = d.int()
		case "matches":
			st.Matches = d.int()
		case "io_bytes":
			st.IOBytes = d.int64()
		case "io_time_ns":
			st.IOTime = d.duration()
		case "cpu_time_ns":
			st.CPUTime = d.duration()
		case "total_ns":
			st.Total = d.duration()
		case "stages":
			d.stages(&st.StageTimes)
		case "shards_total":
			st.ShardsTotal = d.int()
		case "shards_answered":
			st.ShardsAnswered = d.int()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) stages(t *search.StageTimes) {
	for ok := d.first('{', '}'); ok; ok = d.more('}') {
		switch string(d.key()) {
		case "sketch_ns":
			t.Sketch = d.duration()
		case "plan_ns":
			t.Plan = d.duration()
		case "gather_ns":
			t.Gather = d.duration()
		case "count_ns":
			t.Count = d.duration()
		case "merge_ns":
			t.Merge = d.duration()
		case "verify_ns":
			t.Verify = d.duration()
		default:
			d.bad = true
		}
	}
}

// maxPooledBuffer bounds the buffers GetBuffer hands out again: a rare
// large body is not kept alive by the pool.
const maxPooledBuffer = 64 << 10

var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer for one message body. Hand it back
// with PutBuffer once nothing refers to its bytes.
func GetBuffer() *bytes.Buffer {
	buf := buffers.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// PutBuffer returns a buffer to the pool, keeping only small ones.
func PutBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		buffers.Put(buf)
	}
}
