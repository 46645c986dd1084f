package server_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"strings"
	"testing"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/fleet"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// httpFixture is a started server behind an httptest listener.
type httpFixture struct {
	srv *server.Server
	ts  *httptest.Server
}

func newHTTPFixture(t *testing.T, opt server.Options) *httpFixture {
	t.Helper()
	if opt.Clock == nil {
		opt.Clock = server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	}
	s, err := server.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := s.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return &httpFixture{srv: s, ts: ts}
}

func (f *httpFixture) do(t *testing.T, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshaling request: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := f.ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func httpSpec(id string) server.JobSpec {
	return server.JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark"},
		Policies:      []string{"default"},
		Topos:         []string{"open720"},
		Seed:          7,
		WarmRounds:    2,
		EngineRounds:  4,
		MeasureRounds: 4,
	}
}

func decodeError(t *testing.T, data []byte) server.ErrorDetail {
	t.Helper()
	var body server.ErrorBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("error body %q is not structured JSON: %v", data, err)
	}
	if body.Error.Code == "" {
		t.Fatalf("error body %q has no code", data)
	}
	return body.Error
}

func waitDoneHTTP(t *testing.T, f *httpFixture, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := f.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, data)
		}
		var st server.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State.Final() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})

	resp, data := f.do(t, http.MethodPost, "/v1/jobs", httpSpec("web"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d %s, want 202", resp.StatusCode, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID != "web" {
		t.Fatalf("POST body %s (err %v), want job status for web", data, err)
	}

	final := waitDoneHTTP(t, f, "web")
	if final.State != server.StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}

	resp, payload1 := f.do(t, http.MethodGet, "/v1/jobs/web/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d, want 200", resp.StatusCode)
	}
	if n := resp.Header.Get("Content-Length"); n != strconv.Itoa(len(payload1)) || resp.ContentLength != int64(len(payload1)) {
		t.Fatalf("result declares Content-Length %q (%d), body is %d bytes", n, resp.ContentLength, len(payload1))
	}
	_, payload2 := f.do(t, http.MethodGet, "/v1/jobs/web/result", nil)
	if !bytes.Equal(payload1, payload2) {
		t.Fatal("result endpoint is not byte-stable across reads")
	}
	var decoded server.ResultPayload
	if err := json.Unmarshal(payload1, &decoded); err != nil {
		t.Fatalf("result payload does not decode: %v", err)
	}
	if decoded.Digest != final.Digest {
		t.Fatalf("payload digest %s != status digest %s", decoded.Digest, final.Digest)
	}

	resp, data = f.do(t, http.MethodGet, "/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET jobs = %d, want 200", resp.StatusCode)
	}
	var list []server.JobStatus
	if err := json.Unmarshal(data, &list); err != nil || len(list) != 1 {
		t.Fatalf("job list %s (err %v), want one entry", data, err)
	}
}

func TestHTTPErrors(t *testing.T) {
	// The holder job's cost nearly fills the token pool, and its run is
	// long enough to still be in flight through the whole error matrix;
	// the cleanup cancels it (the engine checks ctx every round).
	holder := httpSpec("holder")
	holder.EngineRounds = 50_000_000
	holderCost := holder.Cost()
	f := newHTTPFixture(t, server.Options{JobWorkers: 1,
		MaxJobCost: holderCost, MaxQueuedCost: holderCost + 4})
	t.Cleanup(func() {
		req, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/holder", nil)
		if err != nil {
			return
		}
		if r, err := f.ts.Client().Do(req); err == nil {
			r.Body.Close()
		}
	})
	resp, _ := f.do(t, http.MethodPost, "/v1/jobs", holder)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST holder = %d, want 202", resp.StatusCode)
	}

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		status   int
		code     string
		wantWait bool
	}{
		{"malformed json", http.MethodPost, "/v1/jobs", "not a spec", http.StatusBadRequest, "bad_config", false},
		{"invalid spec", http.MethodPost, "/v1/jobs", server.JobSpec{ID: "e"}, http.StatusBadRequest, "bad_config", false},
		{"duplicate id", http.MethodPost, "/v1/jobs", httpSpec("holder"), http.StatusConflict, "job_exists", false},
		{"overloaded", http.MethodPost, "/v1/jobs", httpSpec("extra"), http.StatusTooManyRequests, "overloaded", true},
		{"unknown job", http.MethodGet, "/v1/jobs/ghost", nil, http.StatusNotFound, "job_not_found", false},
		{"unknown events", http.MethodGet, "/v1/jobs/ghost/events", nil, http.StatusNotFound, "job_not_found", false},
		{"unready result", http.MethodGet, "/v1/jobs/holder/result", nil, http.StatusConflict, "job_not_done", false},
		{"cancel unknown", http.MethodDelete, "/v1/jobs/ghost", nil, http.StatusNotFound, "job_not_found", false},
	}
	for _, tc := range cases {
		resp, data := f.do(t, tc.method, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d %s, want %d", tc.name, resp.StatusCode, data, tc.status)
			continue
		}
		detail := decodeError(t, data)
		if detail.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, detail.Code, tc.code)
		}
		if tc.wantWait {
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Errorf("%s: Retry-After %q is not a positive integer", tc.name, ra)
			}
			if detail.RetryAfterSeconds != secs {
				t.Errorf("%s: body retry_after_seconds %d != header %d", tc.name, detail.RetryAfterSeconds, secs)
			}
		}
	}
}

// TestHTTPLegacyEngineField: a spec naming the simulator's driver, as
// specs did before the driver stopped being a job option, still passes
// the strict decoder. "seq" is admitted and dropped: the status echoes a
// normalized spec with no engine, and the job serves the offline
// RunGrid digest. A driver that never existed is still a 400.
func TestHTTPLegacyEngineField(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	const legacy = `{"id": "legacy", "workloads": ["microbenchmark"], "policies": ["default", "clustered"],
		"topos": ["open720"], "seed": 7, "warm_rounds": 2, "engine_rounds": 4, "measure_rounds": 4, "engine": "seq"}`
	resp, data := f.do(t, http.MethodPost, "/v1/jobs", json.RawMessage(legacy))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST legacy spec = %d %s, want 202", resp.StatusCode, data)
	}
	st := waitDoneHTTP(t, f, "legacy")
	if st.State != server.StateDone {
		t.Fatalf("legacy job %s (err %q), want done", st.State, st.Error)
	}
	if st.Spec.Engine != "" {
		t.Errorf("normalized spec carries engine %q, want none", st.Spec.Engine)
	}
	_, data = f.do(t, http.MethodGet, "/v1/jobs/legacy", nil)
	if bytes.Contains(data, []byte(`"engine"`)) {
		t.Errorf("status %s names an engine", data)
	}

	var spec server.JobSpec
	if err := json.Unmarshal([]byte(legacy), &spec); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := server.Digest(cells, results, merged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest != want {
		t.Errorf("legacy job digest %s, offline RunGrid %s", st.Digest, want)
	}

	bogus := strings.Replace(strings.Replace(legacy, `"seq"`, `"nope"`, 1), `"legacy"`, `"bogus"`, 1)
	resp, data = f.do(t, http.MethodPost, "/v1/jobs", json.RawMessage(bogus))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST engine nope = %d %s, want 400", resp.StatusCode, data)
	}
	if detail := decodeError(t, data); detail.Code != "bad_config" {
		t.Errorf("engine nope: code %q, want bad_config", detail.Code)
	}
}

// TestErrorCatalogueRoundTrip sends every errs sentinel through
// writeError and a real client: a sentinel the catalogue classifies must
// come back as itself under errors.Is, and one it does not (a 500
// "internal") must come back as no sentinel at all. There is one
// catalogue, so the two directions cannot disagree; this pins that the
// client really reads it.
func TestErrorCatalogueRoundTrip(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	byName := map[string]error{}
	for _, sentinel := range errs.Sentinels() {
		byName[sentinel.Name] = sentinel.Err
	}
	// The job ID in the request path names the sentinel to fail with.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.srv.WriteError(w, fmt.Errorf("handler: %w: detail", byName[path.Base(r.URL.Path)]))
	}))
	defer ts.Close()
	cl := client.New(ts.URL, ts.Client())

	classified := 0
	for _, sentinel := range errs.Sentinels() {
		_, err := cl.Status(context.Background(), sentinel.Name)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: client returned %v, want an APIError", sentinel.Name, err)
		}
		if apiErr.Status == http.StatusInternalServerError {
			if apiErr.Code != "internal" || apiErr.Unwrap() != nil {
				t.Errorf("%s: unclassified error came back as code %q wrapping %v", sentinel.Name, apiErr.Code, apiErr.Unwrap())
			}
			continue
		}
		classified++
		if !errors.Is(err, sentinel.Err) {
			t.Errorf("%s: came back as %d %s wrapping %v, not as itself", sentinel.Name, apiErr.Status, apiErr.Code, apiErr.Unwrap())
		}
	}
	if classified == 0 {
		t.Error("no sentinel has a wire class; the round trip checked nothing")
	}
}

func TestHTTPEventsStreamNDJSON(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	if resp, data := f.do(t, http.MethodPost, "/v1/jobs", httpSpec("st")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d %s", resp.StatusCode, data)
	}
	waitDoneHTTP(t, f, "st")

	resp, err := f.ts.Client().Get(f.ts.URL + "/v1/jobs/st/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var types []string
	var last server.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q is not a JSON event: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(types) < 3 || types[0] != server.EventQueued || types[1] != server.EventRunning {
		t.Fatalf("event types %v, want queued, running, ..., done", types)
	}
	if last.Type != server.EventDone || last.Digest == "" {
		t.Fatalf("terminal event %+v, want done with digest", last)
	}
	if last.TasksDone != 1 || last.TasksTotal != 1 {
		t.Fatalf("terminal progress %d/%d, want 1/1", last.TasksDone, last.TasksTotal)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	if resp, data := f.do(t, http.MethodPost, "/v1/jobs", httpSpec("m")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d %s", resp.StatusCode, data)
	}
	waitDoneHTTP(t, f, "m")
	_, served := f.do(t, http.MethodGet, "/v1/jobs/m/result", nil)
	// The one job keeps its shape, the served body less the digest and the
	// numbers, and its values, the numbers with one separator each.
	var body struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(served, &body); err != nil || body.Digest == "" {
		t.Fatalf("result body: %v (digest %q)", err, body.Digest)
	}
	numbers := 0
	dec := json.NewDecoder(bytes.NewReader(served))
	dec.UseNumber()
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("result body: %v", err)
		}
		if _, ok := tok.(json.Number); ok {
			numbers++
		}
	}
	kept := len(served) - len(body.Digest) + numbers

	resp, data := f.do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	text := string(data)
	if err := metrics.CheckPrometheusText(text); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	for _, series := range []string{
		"server_queue_depth",
		`server_jobs{state="done"}`,
		"server_http_request_ms_bucket",
		"server_jobs_admitted_total 1",
		"sim_ops_total",                               // sim series from the completed job's snapshot
		fmt.Sprintf("server_result_bytes %d\n", kept), // the one job's shape and values
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition lacks %q:\n%s", series, text)
		}
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	if resp, _ := f.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if resp, _ := f.do(t, http.MethodGet, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := f.srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, data := f.do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if detail := decodeError(t, data); detail.Code != "unavailable" {
		t.Fatalf("readyz code %q, want unavailable", detail.Code)
	}
	// healthz stays 200: the process is alive, just not admitting.
	if resp, _ := f.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	f := newHTTPFixture(t, server.Options{})
	spec := httpSpec("big")
	for i := 0; i < 1<<17; i++ {
		spec.Workloads = append(spec.Workloads, "microbenchmark")
	}
	resp, data := f.do(t, http.MethodPost, "/v1/jobs", spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized POST = %d %s, want 400", resp.StatusCode, truncate(data))
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

func ExampleJobSpec() {
	spec := server.JobSpec{
		Workloads: []string{"volano"},
		Policies:  []string{"default", "clustered"},
		Topos:     []string{"open720"},
		Seed:      1,
	}
	fmt.Println(spec.Cost() > 0)
	// Output: true
}

// TestServedBytesAreMarshal pins the one payload form. For a real grid,
// five byte sequences equal json.Marshal of the offline payload: the
// HTTP result body, Server.Result, client.Result, a fleet coordinator's
// bytes and ResultPayload.Marshal. The digest is the sha256 of
// json.Marshal of the payload with Digest blank. A failed cell whose
// name and error need escaping holds EncodeResultPayload's bytes to the
// same.
func TestServedBytesAreMarshal(t *testing.T) {
	ctx := context.Background()
	spec := httpSpec("bytes")
	spec.Workloads = []string{"microbenchmark", "volano"}
	spec.Policies = []string{"default", "clustered"}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells, results, _, err := experiments.RunGrid(ctx, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := server.BuildResultPayload(cells, results, sweep.Merged(results))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}

	f := newHTTPFixture(t, server.Options{})
	if resp, data := f.do(t, http.MethodPost, "/v1/jobs", spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	waitDoneHTTP(t, f, spec.ID)
	_, body := f.do(t, http.MethodGet, "/v1/jobs/"+spec.ID+"/result", nil)
	fromServer, err := f.srv.Result(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	fromClient, err := client.New(f.ts.URL, f.ts.Client()).Result(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.New([]fleet.Worker{fleet.NewHTTPWorker("w0", f.ts.URL, nil, client.Backoff{})},
		fleet.Options{Clock: server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()), Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fleetSpec := spec
	fleetSpec.ID = "bytes-fleet"
	_, fromFleet, err := coord.Run(ctx, fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	marshaled, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name string
		data []byte
	}{{"HTTP body", body}, {"Server.Result", fromServer}, {"client.Result", fromClient},
		{"Coordinator.Run", fromFleet}, {"ResultPayload.Marshal", marshaled}} {
		if !bytes.Equal(got.data, want) {
			t.Errorf("%s differs from json.Marshal of the payload:\n got %s\nwant %s", got.name, got.data, want)
		}
	}

	results = append(results, sweep.Result{Name: "x<&>\"/ ", Seed: -3,
		Err: errors.New("boom: \"quoted\" <tag> & \\ \x01 \xff")})
	p, compact, err := server.EncodeResultPayload(nil, cells, results, sweep.Merged(results))
	if err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(p); err != nil || !bytes.Equal(compact, want) {
		t.Fatalf("compact encoding differs from json.Marshal (err %v):\n got %s\nwant %s", err, compact, want)
	}
	if again, err := p.Marshal(); err != nil || !bytes.Equal(again, compact) {
		t.Fatalf("Marshal differs from the compact encoding (err %v)", err)
	}
	blank := p
	blank.Digest = ""
	unsigned, err := json.Marshal(blank)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("sha256:%x", sha256.Sum256(unsigned)); p.Digest != want {
		t.Fatalf("digest %s, want %s", p.Digest, want)
	}
	if d, err := server.Digest(cells, results, sweep.Merged(results)); err != nil || d != p.Digest {
		t.Fatalf("Digest = %s (err %v), want %s", d, err, p.Digest)
	}
}
