package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chiron/internal/scenario"
	"chiron/internal/session"
)

func serverSpec(name string, seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:    name,
		Dataset: "mnist",
		Seed:    seed,
		Classes: []scenario.DeviceClass{
			{Profile: scenario.ProfileNames()[0], Count: 5},
		},
		Budgets:      []float64{60, 90},
		Mechanisms:   []string{"uniform", "equal-time"},
		EvalEpisodes: 2,
		MaxRounds:    30,
	}
}

// testClient drives the JSON API against an httptest server.
type testClient struct {
	t    *testing.T
	base string
}

// do issues one request and decodes the JSON response body.
func (c *testClient) do(method, path string, body any) (int, map[string]any, http.Header) {
	c.t.Helper()
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal %s %s body: %v", method, path, err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, reader)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		c.t.Fatalf("%s %s: decode response: %v", method, path, err)
	}
	return resp.StatusCode, decoded, resp.Header
}

// must asserts the expected status code and returns the body.
func (c *testClient) must(method, path string, body any, want int) map[string]any {
	c.t.Helper()
	code, decoded, _ := c.do(method, path, body)
	if code != want {
		c.t.Fatalf("%s %s = %d (%v), want %d", method, path, code, decoded, want)
	}
	return decoded
}

// waitDone polls a session until it leaves the live states.
func (c *testClient) waitDone(id string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status := c.must("GET", "/sessions/"+id, nil, http.StatusOK)
		switch status["state"] {
		case "done", "stopped", "failed":
			return status
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("session %s never finished", id)
	return nil
}

func newTestServer(t *testing.T, workers, queue int, clock session.Clock) *testClient {
	t.Helper()
	pool, err := session.NewPool(workers, queue, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(pool, clock, 30*time.Second)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		srv.StopAll()
	})
	return &testClient{t: t, base: ts.URL}
}

// TestServerSessionsMatchCLITwins is the acceptance contract end to end:
// two sessions hosted concurrently over HTTP, each with live node
// registration and one missed heartbeat, produce run digests bit-identical
// to CLI runs of the same specs with the latched churn script passed via
// the spec's churn block — including the session that pauses and resumes
// mid-run.
func TestServerSessionsMatchCLITwins(t *testing.T) {
	clock := session.NewManualClock(time.Unix(3000, 0))
	c := newTestServer(t, 2, 2, clock)

	ids := make([]string, 2)
	for i, seed := range []int64{11, 23} {
		created := c.must("POST", "/sessions", map[string]any{
			"spec":      serverSpec(fmt.Sprintf("twin-%d", i), seed),
			"workers":   1,
			"registry":  true,
			"heartbeat": "5s",
		}, http.StatusCreated)
		ids[i] = created["id"].(string)
		if created["state"] != "new" {
			t.Fatalf("created state %v, want new", created["state"])
		}
	}
	// Same membership story on both sessions: node 1 arrives at round 3 and
	// stays healthy; node 2 declares progress through round 6 and then
	// misses its heartbeat deadline.
	for _, id := range ids {
		c.must("POST", "/sessions/"+id+"/nodes", map[string]any{"node": 1, "from_round": 3}, http.StatusOK)
		c.must("POST", "/sessions/"+id+"/nodes", map[string]any{"node": 2}, http.StatusOK)
		c.must("POST", "/sessions/"+id+"/nodes/2/heartbeat", map[string]any{"through_round": 6}, http.StatusOK)
	}
	clock.Advance(3 * time.Second)
	for _, id := range ids {
		// Bare heartbeat (no body) re-arms node 1 without declaring progress.
		c.must("POST", "/sessions/"+id+"/nodes/1/heartbeat", nil, http.StatusOK)
	}
	clock.Advance(4 * time.Second) // node 2's 5s deadline passes
	for _, id := range ids {
		status := c.must("POST", "/sessions/"+id+"/start", nil, http.StatusOK)
		if got := status["churn"]; got != "+1@3,-2@6" {
			t.Fatalf("latched churn %v, want +1@3,-2@6", got)
		}
	}
	// Exercise the wall-clock lifecycle on the first session when the race
	// allows: a tiny grid may already be done, in which case pause is a
	// clean 409. When the pause lands it must hold visibly and resume —
	// and either way the digest below is unaffected (the deterministic
	// pause/resume coverage lives in the session and propcheck tests).
	if code, body, _ := c.do("POST", "/sessions/"+ids[0]+"/pause", nil); code == http.StatusOK {
		if status := c.must("GET", "/sessions/"+ids[0], nil, http.StatusOK); status["state"] != "paused" {
			t.Fatalf("paused session reports %v", status["state"])
		}
		c.must("POST", "/sessions/"+ids[0]+"/resume", nil, http.StatusOK)
	} else if code != http.StatusConflict {
		t.Fatalf("pause = %d (%v), want 200 or 409", code, body)
	}

	for i, seed := range []int64{11, 23} {
		status := c.waitDone(ids[i])
		if status["state"] != "done" {
			t.Fatalf("session %s finished %v (%v)", ids[i], status["state"], status["error"])
		}
		res := c.must("GET", "/sessions/"+ids[i]+"/result", nil, http.StatusOK)

		twin := serverSpec(fmt.Sprintf("twin-%d", i), seed)
		twin.Churn = &scenario.ChurnSpec{Script: "+1@3,-2@6"}
		want, err := scenario.Run(twin, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res["digest"] != want.Digest() {
			t.Fatalf("session %s digest %v != CLI twin %s", ids[i], res["digest"], want.Digest())
		}
		if status["digest"] != want.Digest() {
			t.Fatalf("status digest %v != CLI twin %s", status["digest"], want.Digest())
		}

		// The episodes stream is cursorable and consistent with the cell
		// count: 2 budgets × 2 mechanisms, one eval event each.
		page := c.must("GET", "/sessions/"+ids[i]+"/episodes?since=0", nil, http.StatusOK)
		events := page["events"].([]any)
		if len(events) != 4 {
			t.Fatalf("session %s streamed %d events, want 4", ids[i], len(events))
		}
		next := int(page["next"].(float64))
		rest := c.must("GET", fmt.Sprintf("/sessions/%s/episodes?since=%d", ids[i], next), nil, http.StatusOK)
		if got := rest["events"]; got != nil {
			t.Fatalf("cursor past the end returned %v", got)
		}
	}
}

// TestServerBackpressure pins admission control: the backlog holds
// workers+queue sessions, the next create is a 429 with a Retry-After
// hint, and stopping a held session frees its slot.
func TestServerBackpressure(t *testing.T) {
	c := newTestServer(t, 1, 1, nil)
	spec := func(i int) map[string]any {
		return map[string]any{"spec": serverSpec(fmt.Sprintf("bp-%d", i), int64(i+1))}
	}
	a := c.must("POST", "/sessions", spec(0), http.StatusCreated)["id"].(string)
	c.must("POST", "/sessions", spec(1), http.StatusCreated)
	code, body, header := c.do("POST", "/sessions", spec(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third create = %d (%v), want 429", code, body)
	}
	if header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", header.Get("Retry-After"))
	}
	c.must("POST", "/sessions/"+a+"/stop", nil, http.StatusOK)
	c.waitDone(a)
	c.must("POST", "/sessions", spec(3), http.StatusCreated)

	listed := c.must("GET", "/sessions", nil, http.StatusOK)["sessions"].([]any)
	if len(listed) != 3 {
		t.Fatalf("listing has %d sessions, want 3", len(listed))
	}
}

// TestServerRequestErrors pins the API's error surface: unknown ids are
// 404s, premature results and node traffic without a registry are 409s,
// and malformed registrations are 400s.
func TestServerRequestErrors(t *testing.T) {
	c := newTestServer(t, 1, 2, nil)
	c.must("GET", "/healthz", nil, http.StatusOK)
	c.must("GET", "/sessions/nope", nil, http.StatusNotFound)
	c.must("POST", "/sessions/nope/start", nil, http.StatusNotFound)
	c.must("POST", "/sessions", map[string]any{}, http.StatusBadRequest)
	c.must("POST", "/sessions", map[string]any{
		"spec": serverSpec("bad-hb", 1), "registry": true, "heartbeat": "soon",
	}, http.StatusBadRequest)

	id := c.must("POST", "/sessions", map[string]any{
		"spec": serverSpec("plain", 5),
	}, http.StatusCreated)["id"].(string)
	c.must("GET", "/sessions/"+id+"/result", nil, http.StatusConflict)
	c.must("POST", "/sessions/"+id+"/nodes", map[string]any{"node": 1}, http.StatusConflict)
	c.must("POST", "/sessions/"+id+"/resume", nil, http.StatusConflict)

	rid := c.must("POST", "/sessions", map[string]any{
		"spec": serverSpec("reg", 6), "registry": true,
	}, http.StatusCreated)["id"].(string)
	c.must("POST", "/sessions/"+rid+"/nodes", map[string]any{"node": 99}, http.StatusBadRequest)
	c.must("POST", "/sessions/"+rid+"/nodes/1/heartbeat", nil, http.StatusBadRequest) // unregistered
	c.must("DELETE", "/sessions/"+rid+"/nodes/abc", nil, http.StatusBadRequest)

	c.must("POST", "/sessions/"+id+"/start", nil, http.StatusOK)
	code, _, _ := c.do("POST", "/sessions/"+id+"/start", nil)
	if code != http.StatusConflict {
		t.Fatalf("double start = %d, want 409", code)
	}
	status := c.waitDone(id)
	if status["state"] != "done" {
		t.Fatalf("plain session finished %v", status["state"])
	}
}

// TestServerRejectsOversizedBodies pins the request-body cap: a create,
// register or heartbeat body larger than maxBodyBytes is refused with 413
// before it is decoded, while the same endpoints keep serving normal
// requests.
func TestServerRejectsOversizedBodies(t *testing.T) {
	c := newTestServer(t, 1, 2, nil)
	rid := c.must("POST", "/sessions", map[string]any{
		"spec": serverSpec("cap", 7), "registry": true,
	}, http.StatusCreated)["id"].(string)

	// A syntactically valid prefix makes the decoder read past the cap
	// instead of stopping at the first byte.
	huge := map[string]any{"pad": strings.Repeat("x", maxBodyBytes)}
	for _, path := range []string{
		"/sessions",
		"/sessions/" + rid + "/nodes",
		"/sessions/" + rid + "/nodes/1/heartbeat",
	} {
		code, body, _ := c.do("POST", path, huge)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body = %d (%v), want 413", path, maxBodyBytes, code, body)
		}
	}
	c.must("POST", "/sessions/"+rid+"/nodes", map[string]any{"node": 1}, http.StatusOK)
	c.must("POST", "/sessions/"+rid+"/nodes/1/heartbeat", nil, http.StatusOK)
}

// TestServerRejectsUnknownFields pins strict decoding: a create, register
// or heartbeat body carrying a field its endpoint does not declare, at the
// top level or inside the spec, is a 400 naming the field, and the same
// body without it is served.
func TestServerRejectsUnknownFields(t *testing.T) {
	c := newTestServer(t, 1, 4, nil)
	rid := c.must("POST", "/sessions", map[string]any{
		"spec": serverSpec("strict", 8), "registry": true,
	}, http.StatusCreated)["id"].(string)
	spec := func() map[string]any {
		var m map[string]any
		data, err := json.Marshal(serverSpec("strict-body", 9))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	typoSpec := spec()
	typoSpec["eval_episode"] = 3
	for _, tc := range []struct {
		name, path string
		known      map[string]any
		unknown    map[string]any
		ok         int
	}{
		{"create", "/sessions",
			map[string]any{"spec": spec()},
			map[string]any{"spec": spec(), "worker": 2}, http.StatusCreated},
		{"create spec", "/sessions",
			map[string]any{"spec": spec()},
			map[string]any{"spec": typoSpec}, http.StatusCreated},
		{"register", "/sessions/" + rid + "/nodes",
			map[string]any{"node": 1, "from_round": 2},
			map[string]any{"node": 3, "from": 2}, http.StatusOK},
		{"heartbeat", "/sessions/" + rid + "/nodes/1/heartbeat",
			map[string]any{"through_round": 4},
			map[string]any{"through_round": 4, "round": 5}, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := c.must("POST", tc.path, tc.unknown, http.StatusBadRequest)
			if msg, _ := body["error"].(string); !strings.Contains(msg, "unknown field") {
				t.Fatalf("POST %s error %q, want it to name the unknown field", tc.path, msg)
			}
			c.must("POST", tc.path, tc.known, tc.ok)
		})
	}
}

// FuzzServerRequests drives arbitrary requests through the API mux against
// a server holding one registry session, s-1, with node 1 registered. No
// request may panic a handler or be answered 500: malformed input is the
// client's error.
func FuzzServerRequests(f *testing.F) {
	create, err := json.Marshal(map[string]any{"spec": serverSpec("fuzz", 3), "registry": true})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ method, path, body string }{
		{"POST", "/sessions", string(create)},
		{"POST", "/sessions", `{"spec": {"name": 1}}`},
		{"GET", "/sessions", ""},
		{"GET", "/sessions/s-1", ""},
		{"GET", "/sessions/s-1/result", ""},
		{"GET", "/sessions/s-1/episodes?since=-3", ""},
		{"POST", "/sessions/s-1/pause", ""},
		{"POST", "/sessions/s-1/nodes", `{"node": 2, "from_round": -1}`},
		{"POST", "/sessions/s-1/nodes/1/heartbeat", `{"through_round": 9223372036854775807}`},
		{"POST", "/sessions/s-1/nodes/1/heartbeat", `[`},
		{"DELETE", "/sessions/s-1/nodes/1?round=x", ""},
		{"PUT", "/sessions/s-1/nodes/1", "{}"},
		{"GET", "/%2e%2e/sessions", ""},
	} {
		f.Add(seed.method, seed.path, seed.body)
	}
	f.Fuzz(func(t *testing.T, method, path, body string) {
		req, err := http.NewRequest(method, "http://chirond"+path, strings.NewReader(body))
		if err != nil {
			return // not an HTTP request at all
		}
		pool, err := session.NewPool(1, 2, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(pool, session.NewManualClock(time.Unix(0, 0)), time.Minute)
		defer srv.StopAll()
		mux := srv.routes()
		for _, setup := range []struct{ path, body string }{
			{"/sessions", string(create)},
			{"/sessions/s-1/nodes", `{"node": 1}`},
		} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", setup.path, strings.NewReader(setup.body)))
			if rec.Code/100 != 2 {
				t.Fatalf("setup POST %s = %d: %s", setup.path, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q = %d: %s", method, path, rec.Code, rec.Body)
		}
	})
}
