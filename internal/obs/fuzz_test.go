package obs

import "testing"

// FuzzParseTraceparent feeds arbitrary Traceparent headers to the
// serving edge's parser. It must never panic; an accepted header must
// be lowercase hex in every field (W3C trace context's HEXDIGLC) and
// must re-render through Traceparent to a header that parses back to
// the same context.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff") // unknown flag bits
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01") // all-zero trace id
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") // unknown version
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		for i := 0; i < len(s); i++ {
			if i == 2 || i == 35 || i == 52 {
				continue // the dashes, checked by the parser itself
			}
			if c := s[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
				t.Fatalf("accepted %q: byte %d is %q, not lowercase hex", s, i, c)
			}
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, tc)
		}
		wire := tc.Traceparent()
		back, ok := ParseTraceparent(wire)
		if !ok || back != tc {
			t.Fatalf("%q parsed to %+v, re-rendered as %q, parsed back to %+v (ok %v)", s, tc, wire, back, ok)
		}
	})
}
