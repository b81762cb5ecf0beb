package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
)

func newTestServer(t *testing.T, core *Core) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(core, time.Minute))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, req interface{}) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func TestHTTPCompressDecompressRoundTrip(t *testing.T) {
	srv := newTestServer(t, newTestCore(0))
	data := testData(4)
	for _, tc := range []struct{ codec, profile string }{
		{"bdi", ""},
		{"e2mc", "TP"},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			status, body := postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: tc.codec, Profile: tc.profile, Data: data})
			if status != http.StatusOK {
				t.Fatalf("compress: %d: %s", status, body)
			}
			if bytes.Contains(body, []byte(`"gaps"`)) {
				t.Fatalf("compress response carries a gaps key: %s", body)
			}
			var cres CompressResponse
			if err := json.Unmarshal(body, &cres); err != nil {
				t.Fatal(err)
			}
			decompress := func(req interface{}) []byte {
				t.Helper()
				status, body := postJSON(t, srv.URL+"/v1/decompress", req)
				if status != http.StatusOK {
					t.Fatalf("decompress: %d: %s", status, body)
				}
				var dres DecompressResponse
				if err := json.Unmarshal(body, &dres); err != nil {
					t.Fatal(err)
				}
				return dres.Data
			}
			got := decompress(&DecompressRequest{Codec: tc.codec, Profile: tc.profile, Blocks: cres.Blocks})
			if !bytes.Equal(got, data) {
				t.Fatal("HTTP round trip is not byte-identical")
			}

			// Older clients send a per-block "gaps" array; the field is
			// ignored and decoding is unchanged.
			type legacyBlock struct {
				Block
				Legacy []uint16 `json:"gaps"`
			}
			legacy := make([]legacyBlock, len(cres.Blocks))
			for i, b := range cres.Blocks {
				legacy[i] = legacyBlock{Block: b, Legacy: make([]uint16, 12)}
			}
			got = decompress(map[string]interface{}{
				"codec": tc.codec, "profile": tc.profile, "blocks": legacy,
			})
			if !bytes.Equal(got, data) {
				t.Fatal("decompress with legacy gaps differs from decompress without them")
			}
		})
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	core := newTestCore(1)
	srv := newTestServer(t, core)

	// Caller mistakes are 400s with a JSON error body.
	status, body := postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: "no-such", Data: testData(1)})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown codec: %d, want 400", status)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("error body %q is not the JSON envelope", body)
	}
	if !strings.Contains(eb.Error, "available") {
		t.Fatalf("error %q does not list the available codecs", eb.Error)
	}

	// Undecodable JSON is a 400, not a hang or a 500.
	resp, err := http.Post(srv.URL+"/v1/compress", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}

	// Wrong method is a 405 with Allow.
	resp, err = http.Get(srv.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET on compress: %d Allow=%q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// A saturated core answers 429.
	release, err := core.acquire()
	if err != nil {
		t.Fatal(err)
	}
	status, _ = postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: "bdi", Data: testData(1)})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated: %d, want 429", status)
	}
	release()

	// A draining core answers 503 on work and on healthz.
	core.StartDrain()
	status, _ = postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: "bdi", Data: testData(1)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d, want 503", status)
	}
}

func TestHTTPHealthzFlipsOnDrain(t *testing.T) {
	core := newTestCore(0)
	srv := newTestServer(t, core)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d, want 200", resp.StatusCode)
	}
	core.StartDrain()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestHTTPCodecsListing(t *testing.T) {
	srv := newTestServer(t, newTestCore(0))
	resp, err := http.Get(srv.URL + "/v1/codecs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Codecs   []codecInfo `json:"codecs"`
		Profiles []string    `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, c := range listing.Codecs {
		names[c.Name] = true
	}
	if !names["e2mc"] || !names["bdi"] {
		t.Fatalf("codec listing %v lacks the registry entries", names)
	}
	if len(listing.Profiles) == 0 {
		t.Fatal("no training profiles listed")
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	core := newTestCore(0)
	srv := newTestServer(t, core)
	if status, body := postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: "bdi", Data: testData(1)}); status != http.StatusOK {
		t.Fatalf("compress: %d: %s", status, body)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`slcd_requests_total{endpoint="compress",code="200"} 1`,
		`slcd_request_seconds_count{endpoint="compress"} 1`,
		"slcd_inflight_limit",
		"slcd_table_retrains_total 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
		}
	}
}

// TestHTTPRequestTimeoutIs504 pins the per-request deadline: work that
// cannot finish inside the handler timeout maps to 504, not a hung
// connection.
func TestHTTPRequestTimeoutIs504(t *testing.T) {
	core := newTestCore(0)
	srv := httptest.NewServer(NewHandler(core, time.Nanosecond))
	defer srv.Close()
	status, body := postJSON(t, srv.URL+"/v1/compress", &CompressRequest{Codec: "bdi", Data: testData(256)})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("got %d (%s), want 504", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "timeout") {
		t.Fatalf("error body %q does not explain the timeout", body)
	}
}

// postRaw sends body as-is and returns the answer with its headers.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPAnswersAreCompactAndSized pins the response framing: every POST
// answer is one line of compact JSON, exactly Content-Length bytes long, and
// decodes to the value the direct Core call returns.
func TestHTTPAnswersAreCompactAndSized(t *testing.T) {
	core := newTestCore(0)
	srv := newTestServer(t, core)
	ctx := context.Background()
	data := testData(8)
	for _, tc := range []struct{ codec, profile string }{
		{"bdi", ""},
		{"e2mc", "TP"},
		{"sz-lorenzo", ""},
	} {
		direct, err := core.Compress(ctx, &CompressRequest{Codec: tc.codec, Profile: tc.profile, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		directBack, err := core.Decompress(ctx, &DecompressRequest{Codec: tc.codec, Profile: tc.profile, Blocks: direct.Blocks})
		if err != nil {
			t.Fatal(err)
		}
		directEval, err := core.Evaluate(ctx, &EvaluateRequest{Codec: tc.codec, Profile: tc.profile, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			endpoint  string
			req, want interface{}
			got       interface{}
		}{
			{"compress", &CompressRequest{Codec: tc.codec, Profile: tc.profile, Data: data}, direct, &CompressResponse{}},
			{"decompress", &DecompressRequest{Codec: tc.codec, Profile: tc.profile, Blocks: direct.Blocks}, directBack, &DecompressResponse{}},
			{"evaluate", &EvaluateRequest{Codec: tc.codec, Profile: tc.profile, Data: data}, directEval, &EvaluateResponse{}},
		} {
			body, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, out := postRaw(t, srv.URL+"/v1/"+c.endpoint, body)
			name := tc.codec + " " + c.endpoint
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d: %s", name, resp.StatusCode, out)
			}
			if resp.ContentLength != int64(len(out)) {
				t.Errorf("%s: Content-Length %d for a %d-byte body", name, resp.ContentLength, len(out))
			}
			if bytes.IndexByte(out, '\n') != len(out)-1 {
				t.Errorf("%s: answer is not one newline-terminated line", name)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(out, []byte("\n"))) {
				t.Errorf("%s: answer is not compact JSON: %s", name, out)
			}
			if err := json.Unmarshal(out, c.got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, _ := json.Marshal(c.got)
			want, _ := json.Marshal(c.want)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: HTTP answer %s differs from the Core's %s", name, got, want)
			}
		}
	}
}

// TestHTTPTrailingDataIs400 pins that a body must be exactly one JSON value:
// a second value after the first is a caller mistake, not ignored.
func TestHTTPTrailingDataIs400(t *testing.T) {
	srv := newTestServer(t, newTestCore(0))
	one, err := json.Marshal(&CompressRequest{Codec: "bdi", Data: testData(1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, out := postRaw(t, srv.URL+"/v1/compress", append(one, "\n\t "...)); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: %d (%s), want 200", resp.StatusCode, out)
	}
	resp, out := postRaw(t, srv.URL+"/v1/compress", append(append(one, ' '), one...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two JSON values: %d (%s), want 400", resp.StatusCode, out)
	}
	var eb errorBody
	if err := json.Unmarshal(out, &eb); err != nil || !strings.Contains(eb.Error, "decoding request") {
		t.Fatalf("error body %q does not name the decode failure", out)
	}
}

// TestHTTPBodyCapIs413 pins MaxBodyBytes at its boundary: a valid body of
// exactly MaxBodyBytes bytes is served, one byte more is refused with 413
// and the error envelope.
func TestHTTPBodyCapIs413(t *testing.T) {
	srv := newTestServer(t, newTestCore(0))
	one, err := json.Marshal(&CompressRequest{Codec: "bdi", Data: testData(1)})
	if err != nil {
		t.Fatal(err)
	}
	atCap := append(one, bytes.Repeat([]byte(" "), MaxBodyBytes-len(one))...)
	if resp, out := postRaw(t, srv.URL+"/v1/compress", atCap); resp.StatusCode != http.StatusOK {
		t.Fatalf("body of MaxBodyBytes: %d (%s), want 200", resp.StatusCode, out)
	}
	for _, endpoint := range []string{"compress", "decompress", "evaluate"} {
		resp, out := postRaw(t, srv.URL+"/v1/"+endpoint, append(atCap, ' '))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: body of MaxBodyBytes+1: %d (%s), want 413", endpoint, resp.StatusCode, out)
		}
		var eb errorBody
		if err := json.Unmarshal(out, &eb); err != nil || !strings.Contains(eb.Error, "cap") {
			t.Fatalf("%s: error body %q does not name the cap", endpoint, out)
		}
	}
}

// TestHTTPDecompressBlockCapIs413 pins MaxDecompressBlocks at its boundary:
// a request of exactly the cap is served, one block more is refused with 413
// before the Core allocates the request's output.
func TestHTTPDecompressBlockCapIs413(t *testing.T) {
	core := newTestCore(0)
	data := make([]byte, MaxDecompressBlocks*compress.BlockSize) // all-zero blocks keep the body small
	cres, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, core)
	status, body := postJSON(t, srv.URL+"/v1/decompress", &DecompressRequest{Codec: "bdi", Blocks: cres.Blocks})
	if status != http.StatusOK {
		t.Fatalf("%d blocks: %d (%.200s), want 200", MaxDecompressBlocks, status, body)
	}
	var dres DecompressResponse
	if err := json.Unmarshal(body, &dres); err != nil || !bytes.Equal(dres.Data, data) {
		t.Fatalf("%d blocks: round trip is not byte-identical (err %v)", MaxDecompressBlocks, err)
	}

	over := &DecompressRequest{Codec: "bdi", Blocks: append(cres.Blocks, cres.Blocks[0])}
	status, body = postJSON(t, srv.URL+"/v1/decompress", over)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d blocks: %d (%s), want 413", len(over.Blocks), status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "blocks") {
		t.Fatalf("error body %q does not name the block cap", body)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = core.Decompress(context.Background(), over)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooManyBlocks) {
		t.Fatalf("Core.Decompress over the cap: %v, want ErrTooManyBlocks", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= uint64(len(over.Blocks)*compress.BlockSize) {
		t.Fatalf("rejected request allocated %d bytes, the size of its output", n)
	}
}

// TestWriteJSONUnencodableIs500 pins that the body is encoded before the
// status line: a value JSON cannot carry becomes a 500 with the error
// envelope, not a 200 with a truncated body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &CompressResponse{Codec: "bdi", RawRatio: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "NaN") {
		t.Fatalf("body %q is not the error envelope naming the NaN", rec.Body.Bytes())
	}
}
