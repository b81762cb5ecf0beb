package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/workloads"
)

// DefaultRequestTimeout bounds one request's work when the handler's
// context carries no earlier deadline.
const DefaultRequestTimeout = 30 * time.Second

// MaxBodyBytes caps a POST body; a longer one is refused with 413 before it
// is decoded. The densest body is a run of {"bits":0} blocks, 11 bytes each
// that decode to 40-byte Block structs, so a body at the cap decodes to at
// most 95 325 blocks: 3.8 MB of Block structs. A compress or evaluate body
// at the cap carries 768 KiB of data (base64 is 4 bytes for 3).
const MaxBodyBytes = 1 << 20

// MaxDecompressBlocks caps the blocks of one decompress request at the block
// count of the largest compress input a body at MaxBodyBytes can carry:
// 768 KiB / 128 B = 6144 blocks, so a decompress answer is at most 768 KiB.
// A longer request is refused with ErrTooManyBlocks (413) before its output
// is allocated.
const MaxDecompressBlocks = MaxBodyBytes / 4 * 3 / compress.BlockSize

// Handler serves the slcd HTTP API over a Core.
//
//	POST /v1/compress    CompressRequest   -> CompressResponse
//	POST /v1/decompress  DecompressRequest -> DecompressResponse
//	POST /v1/evaluate    EvaluateRequest   -> EvaluateResponse
//	GET  /v1/codecs      registered codec table
//	GET  /healthz        200 while serving, 503 while draining
//	GET  /metrics        Prometheus text format
type Handler struct {
	core    *Core
	timeout time.Duration
	mux     *http.ServeMux
}

// NewHandler builds the HTTP API over core. timeout bounds each request's
// work; non-positive selects DefaultRequestTimeout.
func NewHandler(core *Core, timeout time.Duration) *Handler {
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	h := &Handler{core: core, timeout: timeout, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/compress", post(h, "compress", func(ctx context.Context, req *CompressRequest) (*CompressResponse, error) {
		return core.Compress(ctx, req)
	}))
	h.mux.HandleFunc("/v1/decompress", post(h, "decompress", func(ctx context.Context, req *DecompressRequest) (*DecompressResponse, error) {
		return core.Decompress(ctx, req)
	}))
	h.mux.HandleFunc("/v1/evaluate", post(h, "evaluate", func(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, error) {
		return core.Evaluate(ctx, req)
	}))
	h.mux.HandleFunc("/v1/codecs", h.handleCodecs)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope of every non-2xx API response.
type errorBody struct {
	Error string `json:"error"`
}

// statusFor maps a Core error to its HTTP status.
func statusFor(err error) int {
	var reqErr *RequestError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case errors.As(err, &tooLarge), errors.Is(err, ErrTooManyBlocks):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 in nginx's dialect, any status works — the
		// connection is gone.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// buffers holds the request and response body buffers, so a request's
// read and its answer's encoding reuse memory instead of regrowing it.
var buffers = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// readJSON reads a request body, capped at MaxBodyBytes, into a pooled
// buffer and decodes it into v. A body over the cap is an
// *http.MaxBytesError (413); one that does not read or decode as exactly one
// JSON value is a RequestError (400).
func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	buf := buffers.Get().(*bytes.Buffer)
	defer buffers.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("serving: request body over the %d-byte cap: %w", MaxBodyBytes, err)
		}
		return badRequest("reading request: %v", err)
	}
	// Unmarshal copies every string and []byte out of buf, so buf can go
	// back to the pool.
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// encodeJSON encodes v as one line of compact JSON into a pooled buffer. It
// runs before the status line goes out, so a value that cannot be encoded
// (a NaN ratio, say) becomes a 500 carrying the error envelope rather than a
// 200 with a truncated body. It returns the buffer and the status to send.
func encodeJSON(status int, v interface{}) (*bytes.Buffer, int) {
	buf := buffers.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(buf).Encode(errorBody{Error: fmt.Sprintf("encoding response: %v", err)}) //nolint:errcheck // a string field always encodes
		status = http.StatusInternalServerError
	}
	return buf, status
}

// send writes an encoded body with its Content-Length in one write and
// returns the buffer to the pool.
func send(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // the client is gone; nothing left to report to it
	buffers.Put(buf)
}

// writeJSON writes v as one compact JSON response with the given status, or
// a 500 if v cannot be encoded.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf, status := encodeJSON(status, v)
	send(w, status, buf)
}

// post adapts one typed Core method into an http.HandlerFunc: method check,
// capped JSON read, per-request timeout, error mapping and metrics.
func post[Req any, Resp any](h *Handler, endpoint string, fn func(context.Context, *Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			h.finish(w, endpoint, http.StatusMethodNotAllowed, time.Time{}, errorBody{Error: "POST only"})
			return
		}
		// Serving latency is wall-clock by nature; the deterministic-core
		// rule stops at the transport layer.
		start := time.Now() //slclint:allow determinism request latency measurement is inherently wall-clock
		var req Req
		if err := readJSON(w, r, &req); err != nil {
			h.finish(w, endpoint, statusFor(err), start, errorBody{Error: err.Error()})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), h.timeout)
		defer cancel()
		resp, err := fn(ctx, &req)
		if err != nil {
			status := statusFor(err)
			if status == http.StatusGatewayTimeout && r.Context().Err() == nil {
				// The per-request timeout fired, not the client's deadline.
				err = fmt.Errorf("request exceeded the %s timeout", h.timeout)
			}
			h.finish(w, endpoint, status, start, errorBody{Error: err.Error()})
			return
		}
		h.finish(w, endpoint, http.StatusOK, start, resp)
	}
}

// finish encodes the response, records the request metrics under the
// status it will carry, then writes it.
func (h *Handler) finish(w http.ResponseWriter, endpoint string, status int, start time.Time, body interface{}) {
	buf, status := encodeJSON(status, body)
	labels := `endpoint="` + endpoint + `",code="` + strconv.Itoa(status) + `"`
	h.core.Metrics.Add("slcd_requests_total", labels, 1)
	if !start.IsZero() {
		elapsed := time.Since(start) //slclint:allow determinism request latency measurement is inherently wall-clock
		h.core.Metrics.Observe("slcd_request_seconds", `endpoint="`+endpoint+`"`, elapsed.Seconds())
	}
	send(w, status, buf)
}

// codecInfo is one row of the /v1/codecs listing.
type codecInfo struct {
	Name             string `json:"name"`
	NeedsTable       bool   `json:"needsTable,omitempty"`
	Lossy            bool   `json:"lossy,omitempty"`
	LossyBounded     bool   `json:"lossyBounded,omitempty"`
	Base             string `json:"base,omitempty"`
	Identity         bool   `json:"identity,omitempty"`
	CompressCycles   int    `json:"compressCycles,omitempty"`
	DecompressCycles int    `json:"decompressCycles,omitempty"`
}

// handleCodecs lists every registered codec and the profiles available for
// table training.
func (h *Handler) handleCodecs(w http.ResponseWriter, r *http.Request) {
	var codecs []codecInfo
	for _, name := range compress.Names() {
		info, _ := compress.Lookup(name)
		codecs = append(codecs, codecInfo{
			Name:             name,
			NeedsTable:       info.NeedsTable,
			Lossy:            info.Lossy,
			LossyBounded:     info.LossyBounded,
			Base:             info.Base,
			Identity:         info.Identity,
			CompressCycles:   info.CompressCycles,
			DecompressCycles: info.DecompressCycles,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Codecs   []codecInfo `json:"codecs"`
		Profiles []string    `json:"profiles"`
	}{codecs, workloads.AllNames()})
}

// handleHealthz reports liveness: 503 once draining starts, so load
// balancers stop routing to an instance that will refuse the work.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h.core.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the Prometheus text exposition.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.core.Metrics.WriteText(w, h.core.Gauges())
}
