package server

// Request identity and structured logging plumbing. Every request gets
// an ID — client-supplied X-Request-ID when present (sanitized), else
// generated from a per-process random prefix plus a sequence number —
// which is echoed back as X-Request-ID, attached to error responses,
// carried in the request context, and stamped on every log line and
// flight record, so one slow query can be chased from the client
// through the access log into its stage trace.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"

	"ndss/internal/obs"
)

// ridPrefix distinguishes server processes; ridSeq orders requests
// within one.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

func newRequestID() string {
	return fmt.Sprintf("%s-%06x", ridPrefix, ridSeq.Add(1))
}

// maxRequestIDLen bounds accepted client-supplied ids.
const maxRequestIDLen = 64

// requestIDFor returns the request's id: a sane client-supplied
// X-Request-ID (which is how a coordinator's id reaches a shard's
// access log), or a fresh one.
func requestIDFor(r *http.Request) string {
	if id := r.Header.Get(obs.HeaderRequestID); id != "" && len(id) <= maxRequestIDLen && printableASCII(id) {
		return id
	}
	return newRequestID()
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
