package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/compress/sz"
	"repro/internal/gpu/device"
	"repro/internal/serving"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// slcdConfig is one codec configuration of the traffic mix.
type slcdConfig struct {
	codec, profile string
	errorBound     float64
}

// slcdMix pairs each codec with the profile whose device image its payloads
// are cut from: the entropy codecs over image data, sz over a float field,
// the word codecs over market and coordinate data.
var slcdMix = []slcdConfig{
	{codec: "e2mc", profile: "TP"},
	{codec: "tslc-opt", profile: "DCT"},
	{codec: "sz-lorenzo", profile: "HPC-S", errorBound: sz.DefaultBound},
	{codec: "lz4b", profile: "BS"},
	{codec: "bdi", profile: "NN"},
}

const (
	// slcdInterval spaces the traced run's open loop: 200 req/s, a quarter of
	// what two closed-loop connections complete on a 2-core host. Evenly
	// spaced rather than Poisson arrivals: on a host whose speed drifts,
	// Poisson bursts turn the drift into a p99 spread above any usable
	// regression bound.
	slcdInterval = 5 * time.Millisecond
	// slcdConns bounds the load generator's connections (and goroutines).
	slcdConns = 2
	// slcdPayloads is the number of distinct payloads per configuration.
	slcdPayloads = 16
	minPayload   = 16 << 10
	maxPayload   = 128 << 10
	// evaluateShare of the requests go to /v1/evaluate; the rest split
	// evenly between compress and decompress.
	evaluateShare = 0.1
	spanHeader    = "X-Bench-Span"
	opHeader      = "X-Bench-Op"
)

// slcdRequest is one prepared request, the body the server must answer it
// with, and the same request as an in-process Core call.
type slcdRequest struct {
	endpoint string // compress, decompress or evaluate
	codec    string
	body     []byte
	want     []byte
	payload  int // bytes of block data the request carries
	call     func(ctx context.Context, core *serving.Core) error
}

// slcdServer is a Core behind an HTTP server on a loopback port, and the
// load generator's client.
type slcdServer struct {
	core    *serving.Core
	handler http.Handler // the untraced API handler
	srv     *http.Server
	url     string
	client  *http.Client
	done    chan error
}

func startSlcd(tr *tracer) (*slcdServer, error) {
	core := serving.NewCore(serving.Config{})
	h := serving.NewHandler(core, 0)
	s := &slcdServer{core: core, handler: h, done: make(chan error, 1)}
	var served http.Handler = h
	if tr != nil {
		served = tracedHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: served, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     slcdConns,
			MaxIdleConnsPerHost: slcdConns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it.
func (s *slcdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return err
}

// tracedHandler records a span around every request the client tagged.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		_, end := tr.span(parent, "serving.handler", r.Header.Get(opHeader))
		h.ServeHTTP(w, r)
		end()
	})
}

// errStatus is a non-200 answer.
type errStatus int

func (e errStatus) Error() string { return fmt.Sprintf("HTTP status %d", int(e)) }

// do sends one request and checks the answer byte for byte, reading it into
// the caller's buffer so the load generator allocates little of its own.
func (s *slcdServer) do(req *slcdRequest, tr *tracer, op string, buf *bytes.Buffer) error {
	id, end := tr.span(0, "serving.request", op)
	defer end()
	hreq, err := http.NewRequest(http.MethodPost, s.url+"/v1/"+req.endpoint, bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hreq.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		hreq.Header.Set(opHeader, op)
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errStatus(resp.StatusCode)
	}
	if !bytes.Equal(buf.Bytes(), req.want) {
		return fmt.Errorf("%s %s: body differs from the in-process response", req.endpoint, req.codec)
	}
	return nil
}

// profileImages are the device images the payloads are cut from: each
// profile's memory after a functional run.
func profileImages() (map[string][]byte, error) {
	images := make(map[string][]byte)
	for _, c := range slcdMix {
		w, err := workloads.ByName(c.profile)
		if err != nil {
			return nil, err
		}
		dev := device.New()
		if _, err := w.Run(workloads.NewCtx(dev, nil, nil)); err != nil {
			return nil, fmt.Errorf("%s image: %w", c.profile, err)
		}
		img, err := dev.Bytes(dev.Regions()[0].Addr, dev.Footprint())
		if err != nil {
			return nil, err
		}
		images[c.profile] = img
	}
	return images, nil
}

// slcdSetup starts a fresh server and waits until every configuration has
// answered once. It returns the set-up time and its table-training part.
func slcdSetup(tr *tracer, images map[string][]byte) (*slcdServer, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	s, err := startSlcd(tr)
	if err != nil {
		return nil, st, err
	}
	t := time.Now()
	for _, c := range slcdMix {
		if info, _ := compress.Lookup(c.codec); info.NeedsTable {
			w, err := workloads.ByName(c.profile)
			if err == nil {
				_, err = s.core.Tables.Table(w)
			}
			if err != nil {
				s.stop()
				return nil, st, err
			}
		}
	}
	st.tables = time.Since(t).Seconds()
	for _, c := range slcdMix {
		req := serving.CompressRequest{Codec: c.codec, Profile: c.profile, ErrorBound: c.errorBound, Data: images[c.profile][:minPayload]}
		body, _ := json.Marshal(req)
		resp, err := s.client.Post(s.url+"/v1/compress", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errStatus(resp.StatusCode)
			}
		}
		if err != nil {
			s.stop()
			return nil, st, fmt.Errorf("first %s request: %w", c.codec, err)
		}
	}
	st.total = time.Since(start).Seconds()
	return s, st, nil
}

// serveInProcess answers one request through the API handler without the
// network, returning the body of a 200 answer.
func serveInProcess(h http.Handler, endpoint string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", endpoint, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// sameJSON reports whether two values encode identically.
func sameJSON(a, b interface{}) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// checkRoundTrip compares decompressed bytes with the originals: exact for
// lossless codecs and non-lossy blocks, within the bound for error-bounded
// codecs (non-finite lanes bit-exact).
func checkRoundTrip(codec string, bound float64, blocks []serving.Block, orig, got []byte) error {
	info, _ := compress.Lookup(codec)
	if len(got) != len(orig) {
		return fmt.Errorf("%d bytes back for %d sent", len(got), len(orig))
	}
	for i, b := range blocks {
		o := orig[i*compress.BlockSize : (i+1)*compress.BlockSize]
		g := got[i*compress.BlockSize : (i+1)*compress.BlockSize]
		switch {
		case !info.Lossy || !b.Lossy:
			if !bytes.Equal(o, g) {
				return fmt.Errorf("block %d is not exact", i)
			}
		case info.LossyBounded:
			wo, wg := compress.Words(o), compress.Words(g)
			for j := range wo {
				vo := float64(math.Float32frombits(wo[j]))
				vg := float64(math.Float32frombits(wg[j]))
				if math.IsNaN(vo) || math.IsInf(vo, 0) {
					if wo[j] != wg[j] {
						return fmt.Errorf("block %d lane %d: non-finite value changed", i, j)
					}
				} else if math.Abs(vg-vo) > bound {
					return fmt.Errorf("block %d lane %d: error %g over the bound %g", i, j, math.Abs(vg-vo), bound)
				}
			}
		}
	}
	return nil
}

// slcdPool is the prepared requests, three per payload (compress, its
// decompress, evaluate), and the evaluate answers.
type slcdPool struct {
	reqs  []*slcdRequest
	evals []serving.EvaluateResponse
}

// buildPool cuts seeded payloads from the images, computes every expected
// answer in process and checks it.
func buildPool(s *slcdServer, images map[string][]byte, rng *rand.Rand, payloads int, rep *report) (*slcdPool, error) {
	ctx := context.Background()
	p := &slcdPool{}
	for _, c := range slcdMix {
		img := images[c.profile]
		bound := c.errorBound
		for k := 0; k < payloads; k++ {
			// Log-uniform sizes, one per stratum, so every seed draws the
			// same size distribution.
			u := (float64(k) + rng.Float64()) / float64(payloads)
			size := int(math.Exp(math.Log(minPayload)+u*math.Log(maxPayload/minPayload))) &^ (compress.BlockSize - 1)
			size = min(max(size, minPayload), len(img)&^(compress.BlockSize-1))
			off := rng.Intn((len(img)-size)/compress.BlockSize+1) * compress.BlockSize
			data := img[off : off+size]

			creq := &serving.CompressRequest{Codec: c.codec, Profile: c.profile, ErrorBound: bound, Data: data}
			cbody, err := json.Marshal(creq)
			if err != nil {
				return nil, err
			}
			cwant, err := serveInProcess(s.handler, "compress", cbody)
			if err != nil {
				return nil, err
			}
			direct, err := s.core.Compress(ctx, creq)
			if err != nil {
				return nil, err
			}
			var viaHTTP serving.CompressResponse
			err = json.Unmarshal(cwant, &viaHTTP)
			rep.check(err == nil && sameJSON(direct, &viaHTTP), "%s payload %d: handler answer differs from Core.Compress", c.codec, k)

			dreq := &serving.DecompressRequest{Codec: c.codec, Profile: c.profile, ErrorBound: bound, Blocks: direct.Blocks}
			dbody, err := json.Marshal(dreq)
			if err != nil {
				return nil, err
			}
			dwant, err := serveInProcess(s.handler, "decompress", dbody)
			if err != nil {
				return nil, err
			}
			var back serving.DecompressResponse
			err = json.Unmarshal(dwant, &back)
			if err == nil {
				err = checkRoundTrip(c.codec, bound, direct.Blocks, data, back.Data)
			}
			rep.check(err == nil, "%s payload %d: round trip: %v", c.codec, k, err)

			ereq := &serving.EvaluateRequest{Codec: c.codec, Profile: c.profile, ErrorBound: bound, Data: data}
			ebody, err := json.Marshal(ereq)
			if err != nil {
				return nil, err
			}
			ewant, err := serveInProcess(s.handler, "evaluate", ebody)
			if err != nil {
				return nil, err
			}
			var eval serving.EvaluateResponse
			if err := json.Unmarshal(ewant, &eval); err != nil {
				return nil, err
			}
			p.evals = append(p.evals, eval)

			p.reqs = append(p.reqs,
				&slcdRequest{endpoint: "compress", codec: c.codec, body: cbody, want: cwant, payload: size,
					call: func(ctx context.Context, core *serving.Core) error { _, err := core.Compress(ctx, creq); return err }},
				&slcdRequest{endpoint: "decompress", codec: c.codec, body: dbody, want: dwant, payload: size,
					call: func(ctx context.Context, core *serving.Core) error { _, err := core.Decompress(ctx, dreq); return err }},
				&slcdRequest{endpoint: "evaluate", codec: c.codec, body: ebody, want: ewant, payload: size,
					call: func(ctx context.Context, core *serving.Core) error { _, err := core.Evaluate(ctx, ereq); return err }},
			)
		}
	}
	return p, nil
}

// sequence draws n requests of the mix: a uniform payload of a uniform
// configuration, sent to evaluate with probability evaluateShare and to
// compress or decompress otherwise.
func (p *slcdPool) sequence(rng *rand.Rand, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		payload := rng.Intn(len(p.reqs) / 3)
		endpoint := 2
		if rng.Float64() >= evaluateShare {
			endpoint = rng.Intn(2)
		}
		seq[i] = payload*3 + endpoint
	}
	return seq
}

// loadStats is what one load phase measured.
type loadStats struct {
	lat      []float64 // ms, from the due time (open loop) or the send
	sendLat  []float64 // ms, from the send
	failed   int
	rejected int
	late     int // sent more than 1 ms after the due time
	backlog  int // most requests due but not yet sent
	wall     float64
	problems []string
}

func (l *loadStats) add(o loadStats) {
	l.lat = append(l.lat, o.lat...)
	l.sendLat = append(l.sendLat, o.sendLat...)
	l.failed += o.failed
	l.rejected += o.rejected
	l.late += o.late
	l.backlog = max(l.backlog, o.backlog)
	if len(l.problems) < 5 {
		l.problems = append(l.problems, o.problems...)
	}
}

func (l *loadStats) record(err error) {
	if err == nil {
		return
	}
	l.failed++
	var st errStatus
	if errors.As(err, &st) && int(st) == http.StatusTooManyRequests {
		l.rejected++
	}
	if len(l.problems) < 5 {
		l.problems = append(l.problems, err.Error())
	}
}

// report counts the phase's requests into rep.
func (l *loadStats) report(rep *report, phase string) {
	rep.attempted += int64(len(l.lat))
	rep.failed += int64(l.failed)
	for _, p := range l.problems {
		if len(rep.problems) < 20 {
			rep.problems = append(rep.problems, phase+": "+p)
		}
	}
}

// schedule returns the open loop's due times over d.
func schedule(d time.Duration) []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at < d; at += slcdInterval {
		out = append(out, at)
	}
	return out
}

// senders runs slcdConns load goroutines, each with its own stats and
// response buffer, waits for them and merges their stats.
func senders(send func(l *loadStats, buf *bytes.Buffer)) loadStats {
	parts := make([]loadStats, slcdConns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(l *loadStats) {
			defer wg.Done()
			var buf bytes.Buffer
			send(l, &buf)
		}(&parts[c])
	}
	wg.Wait()
	var out loadStats
	for _, part := range parts {
		out.add(part)
	}
	out.wall = time.Since(start).Seconds()
	return out
}

// openLoop sends each request at its due time over at most slcdConns
// connections; a request whose connection is still busy waits, and its
// latency counts from the due time.
func openLoop(s *slcdServer, p *slcdPool, seq []int, due []time.Duration, tr *tracer) loadStats {
	var next atomic.Int64
	start := time.Now()
	return senders(func(l *loadStats, buf *bytes.Buffer) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(due) {
				return
			}
			at := start.Add(due[i])
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			if sent.Sub(at) > time.Millisecond {
				l.late++
			}
			pending := sort.Search(len(due), func(j int) bool { return due[j] > sent.Sub(start) }) - i - 1
			l.backlog = max(l.backlog, pending)
			l.record(s.do(p.reqs[seq[i]], tr, "req-"+strconv.Itoa(i), buf))
			done := time.Now()
			l.lat = append(l.lat, float64(done.Sub(at).Nanoseconds())/1e6)
			l.sendLat = append(l.sendLat, float64(done.Sub(sent).Nanoseconds())/1e6)
		}
	})
}

// closedLoop keeps slcdConns requests in flight for d.
func closedLoop(d time.Duration, seq []int, send func(buf *bytes.Buffer, req int) error) loadStats {
	var next atomic.Int64
	start := time.Now()
	return senders(func(l *loadStats, buf *bytes.Buffer) {
		for time.Since(start) < d {
			i := int(next.Add(1) - 1)
			t := time.Now()
			l.record(send(buf, seq[i%len(seq)]))
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			l.lat = append(l.lat, ms)
			l.sendLat = append(l.sendLat, ms)
		}
	})
}

// mean is the arithmetic mean, 0 for no values.
func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

func runSlcd(o options, tr *tracer, rep *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	images, err := profileImages()
	if err != nil {
		return err
	}
	setups := 3
	payloads := slcdPayloads
	if o.tiny || tr != nil {
		setups = 1
	}
	if o.tiny {
		payloads = 1
	}
	var s *slcdServer
	var setupS []float64
	var setup setupTimes
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		if s, setup, err = slcdSetup(tr, images); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, setup.total)
	}
	defer s.stop()
	pool, err := buildPool(s, images, rng, payloads, rep)
	if err != nil {
		return err
	}

	phase := func(share float64) time.Duration {
		if o.tiny {
			return time.Second
		}
		return time.Duration(share * o.seconds * float64(time.Second))
	}
	open := func(name string, d time.Duration, traced *tracer) loadStats {
		due := schedule(d)
		l := openLoop(s, pool, pool.sequence(rng, len(due)), due, traced)
		l.report(rep, name)
		return l
	}
	closedSeq := pool.sequence(rng, 1<<14)
	if tr == nil {
		// Latency and throughput both come from the closed loop: on a 2-core
		// guest an open loop's latency from the due time mostly measures how
		// late an idle vCPU wakes up (see bench/README.md).
		send := func(buf *bytes.Buffer, req int) error { return s.do(pool.reqs[req], nil, "", buf) }
		if !o.tiny {
			warm := closedLoop(phase(0.05), closedSeq, send)
			warm.report(rep, "warm-up")
		}
		closed := closedLoop(phase(0.95), closedSeq, send)
		closed.report(rep, "closed loop")
		rep.set("setup_s", median(setupS))
		rep.set("ops_per_s", float64(len(closed.lat))/closed.wall)
		rep.set("op_p50_ms", percentile(closed.lat, 50))
		rep.set("op_p90_ms", percentile(closed.lat, 90))
		rep.note("closed loop on %d connections: %d requests, %d rejected", slcdConns, len(closed.lat), closed.rejected)
		return nil
	}

	// Traced: the Core in process, the API over HTTP with spans, then the
	// API over HTTP without spans for the tracing overhead.
	ctx := context.Background()
	coreBytes := make(map[string]float64)
	coreSec := make(map[string]float64)
	var coreMu sync.Mutex
	core := closedLoop(phase(0.25), closedSeq, func(_ *bytes.Buffer, req int) error {
		r := pool.reqs[req]
		t := time.Now()
		err := r.call(ctx, s.core)
		d := time.Since(t).Seconds()
		coreMu.Lock()
		coreBytes[r.endpoint] += float64(r.payload)
		coreSec[r.endpoint] += d
		coreMu.Unlock()
		return err
	})
	core.report(rep, "core")
	traced := open("traced open loop", phase(0.5), tr)
	plain := open("open loop", phase(0.25), nil)

	rep.set("setup.table_train_s", setup.tables)
	for _, ep := range []string{"compress", "decompress", "evaluate"} {
		rep.set("serving.core_"+ep+"_mb_s", ratio(coreBytes[ep]/1e6, coreSec[ep]))
	}
	rep.set("serving.transport_frac", 1-ratio(mean(core.sendLat), mean(traced.sendLat)))
	rep.set("serving.rejected_429", float64(core.rejected+traced.rejected+plain.rejected))
	rep.set("serving.table_retrains", float64(s.core.Tables.Stats().Retrains))
	rep.set("loadgen.late_frac", ratio(float64(traced.late+plain.late), float64(len(traced.lat)+len(plain.lat))))
	rep.set("loadgen.backlog_max", float64(max(traced.backlog, plain.backlog)))
	rep.set("trace.overhead_frac", ratio(mean(traced.sendLat), mean(plain.sendLat))-1)

	setSelfShares(rep, tr.snapshot())
	crs := make(map[string][]float64)
	var all []float64
	for i, e := range pool.evals {
		codec := slcdMix[i/payloads].codec
		crs[codec] = append(crs[codec], e.EffectiveRatio)
		all = append(all, e.EffectiveRatio)
	}
	for codec, v := range crs {
		rep.set("compress."+codec+".eff_cr", stats.Geomean(v))
	}
	rep.set("model.eff_cr_gm", stats.Geomean(all))
	return nil
}
