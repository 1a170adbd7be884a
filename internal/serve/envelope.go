package serve

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// The request envelope: what every HTTP tier of the fleet — a serve
// replica and the proxy in front of replicas — does around its
// handlers, the same way. Request-ID adoption and minting, the JSON
// answer and error shape, the admin bearer-token gate, the retained-
// trace API, trace-store construction and the listen/drain loop live
// here once; the proxy calls them instead of keeping copies that would
// have to agree.

// maxTraceIDLen bounds an attacker-supplied X-Request-ID so a huge
// header cannot bloat logs and span records.
const maxTraceIDLen = 128

// DefaultMaxBodyBytes is the request-body bound of a replica whose
// Config leaves MaxBodyBytes zero (a MatrixMarket body of several
// million nonzeros), and the bound the proxy buffers up to.
const DefaultMaxBodyBytes = 64 << 20

// RequestID returns r's trace ID: its X-Request-ID clipped to 128
// bytes, or a freshly minted 16-hex-digit random ID when the header is
// absent. The proxy mints the fleet-wide ID and forwards it; replicas
// adopt it, so every hop's spans and logs share one key.
func RequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		return newTraceID()
	}
	if len(id) > maxTraceIDLen {
		id = id[:maxTraceIDLen]
	}
	return id
}

// newTraceID mints a 16-hex-digit random trace ID. On the (never
// observed) chance the system randomness source fails, a constant
// sentinel keeps requests flowing — tracing is diagnostics, not
// authentication.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ErrorResponse is the JSON error body of every endpoint.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v encoded as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// v is always one of our own response structs; this cannot
		// happen for valid predictions, but never crash the handler.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// Envelope is one tier's share of the request envelope: how its admin
// surface is gated and where its retained traces live.
type Envelope struct {
	// Tier names the process in human-readable errors ("server",
	// "proxy").
	Tier string
	// Realm is the WWW-Authenticate realm of the admin gate.
	Realm string
	// Token is the admin bearer token. Empty refuses every admin
	// request — mutation is opt-in, never accidentally open.
	Token string
	// Traces is the tier's tail-sampled trace store; nil when tracing
	// is off.
	Traces *obs.TraceStore
	// Denied, when non-nil, counts admin requests refused for a bad or
	// missing token.
	Denied *obs.Counter
}

// authorized reports whether r carries the admin token. Comparison is
// constant-time over SHA-256 digests, so neither token length nor a
// matching prefix leaks through timing.
func (e *Envelope) authorized(r *http.Request) bool {
	if e.Token == "" {
		return false
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	a := sha256.Sum256([]byte(got))
	b := sha256.Sum256([]byte(e.Token))
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// Admin gates h behind the request method (405 with Allow otherwise)
// and the admin token (401 with WWW-Authenticate otherwise).
func (e *Envelope) Admin(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use " + method})
			return
		}
		if !e.authorized(r) {
			if e.Denied != nil {
				e.Denied.Inc()
			}
			w.Header().Set("WWW-Authenticate", `Bearer realm="`+e.Realm+`"`)
			msg := "invalid admin token"
			if e.Token == "" {
				msg = "admin API disabled: start the " + e.Tier + " with -admin-token"
			}
			WriteJSON(w, http.StatusUnauthorized, ErrorResponse{Error: msg})
			return
		}
		h(w, r)
	}
}

// TraceList is the /v1/admin/trace answer.
type TraceList struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceAPI answers both /v1/admin/trace (summaries of every retained
// trace, newest first) and /v1/admin/trace/<id> (one retained trace,
// by the request's X-Request-ID). render builds the answer for one
// entry; nil answers the entry itself. 501 when the tier's tracing is
// off, 404 for an ID the store does not hold.
func (e *Envelope) TraceAPI(render func(r *http.Request, te *obs.TraceEntry) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e.Traces == nil {
			WriteJSON(w, http.StatusNotImplemented,
				ErrorResponse{Error: "tracing disabled on this " + e.Tier + " (-trace -1)"})
			return
		}
		id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/admin/trace"), "/")
		if id == "" {
			list := e.Traces.List()
			if list == nil {
				list = []obs.TraceSummary{}
			}
			WriteJSON(w, http.StatusOK, TraceList{Count: len(list), Traces: list})
			return
		}
		te := e.Traces.Get(id)
		if te == nil {
			WriteJSON(w, http.StatusNotFound,
				ErrorResponse{Error: "no retained trace with ID " + id + " (evicted, sampled out, or never seen)"})
			return
		}
		if render == nil {
			WriteJSON(w, http.StatusOK, te)
			return
		}
		WriteJSON(w, http.StatusOK, render(r, te))
	}
}

// NewTraceStore builds a tier's tail-sampled trace store from its
// -trace, -trace-slow and -trace-sample settings (zero selects the
// store's defaults), or returns nil when capacity is negative: tracing
// off. prefix names the store's counters in obs.Default; dynamicSlow,
// when non-nil, adds a moving slow threshold.
func NewTraceStore(prefix string, capacity int, slow time.Duration, sample int, dynamicSlow func() time.Duration) *obs.TraceStore {
	if capacity < 0 {
		return nil
	}
	return obs.NewTraceStore(obs.TraceConfig{
		Capacity:      capacity,
		SlowThreshold: slow,
		SampleEvery:   sample,
		DynamicSlow:   dynamicSlow,
		Metrics:       obs.Default,
		Prefix:        prefix,
	})
}

// RunHTTP serves h on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 5 seconds. ready,
// when non-nil, receives the bound address once the listener is up —
// how callers learn the port of ":0". readTimeout and writeTimeout
// bound reading one request and writing its answer.
func RunHTTP(ctx context.Context, addr string, h http.Handler, readTimeout, writeTimeout time.Duration, ready func(bound string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
