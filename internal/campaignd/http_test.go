package campaignd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, opts)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return ts, m
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	ts, _ := newTestServer(t, Options{ShardSize: 4})
	resp := postJSON(t, ts.URL+"/v1/campaigns",
		`{"task": "campaignd-test-walk", "base_seed": 21, "seeds": 10, "workers": 2}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.SeedsTotal != 10 || st.ShardsTotal != 3 {
		t.Fatalf("bad created status: %+v", st)
	}

	// Poll the detail endpoint until done; the result must match a
	// local one-shot run byte for byte.
	var final JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		final = decodeStatus(t, r)
		r.Body.Close()
		if final.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final: %+v", final)
	}
	oneShot, err := campaign.Run(t.Context(), campaign.Spec{
		Task: "campaignd-test-walk", BaseSeed: 21, Seeds: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, final.Result) != resultJSON(t, oneShot) {
		t.Fatal("HTTP result differs from local one-shot run")
	}

	// The list endpoint shows the job (summary: no result payload).
	r, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list: %+v", list.Jobs)
	}
}

func TestHTTPRejectsMalformedSpecs(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	cases := []string{
		``,                             // empty body
		`{`,                            // truncated JSON
		`{"task": 42}`,                 // wrong type
		`{"task": "nope", "seeds": 4}`, // unknown task
		`{"task": "campaignd-test-walk", "seeds": 0}`,                   // zero seeds
		`{"task": "campaignd-test-walk", "seeds": -1}`,                  // negative seeds
		`{"task": "campaignd-test-walk", "seeds": 1099511627776}`,       // seeds over the cap
		`{"task": "campaignd-test-walk", "seeds": 4, "noise": "wat"}`,   // bad noise model
		`{"task": "campaignd-test-walk", "seeds": 4, "frobnicate": 1}`,  // unknown field
		`{"task": "campaignd-test-walk", "seeds": 4, "shard_size": -1}`, // bad shard size
		`{"task": "campaignd-test-walk", "seeds": 2} garbage`,           // data after the spec
	}
	for _, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/campaigns", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %s, want 400", body, resp.Status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("spec %q: no error payload (%v)", body, err)
		}
	}
	// Nothing was created.
	r, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("malformed specs created jobs: %+v", list.Jobs)
	}
}

// A spec naming the removed stream noise model gets a 400 whose error
// says the model was removed, so an old client learns why.
func TestHTTPRejectsRemovedStreamModel(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/campaigns", `{"task": "campaignd-test-walk", "seeds": 4, "noise": "stream"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "stream noise model was removed") {
		t.Fatalf("error payload %q (%v), want the removed-model reason", e.Error, err)
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/cdeadbeef0000"},
		{http.MethodPost, "/v1/campaigns/cdeadbeef0000/cancel"},
		{http.MethodGet, "/v1/campaigns/cdeadbeef0000/stream"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %s, want 404", probe.method, probe.path, resp.Status)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	ts, _ := newTestServer(t, Options{ShardSize: 1, Throttle: 20 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/campaigns",
		`{"task": "campaignd-test-walk", "base_seed": 3, "seeds": 50, "workers": 1}`)
	st := decodeStatus(t, resp)

	r := postJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", "")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", r.Status)
	}
	if got := decodeStatus(t, r); got.State != StateCancelled {
		t.Fatalf("cancel status: %+v", got)
	}
	// A second cancel conflicts.
	r2 := postJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", "")
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %s, want 409", r2.Status)
	}
}

// The SSE stream must deliver progress events ending with a terminal
// "done" event whose aggregates match the job's final state.
func TestHTTPStream(t *testing.T) {
	ts, _ := newTestServer(t, Options{ShardSize: 2, Throttle: 5 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/campaigns",
		`{"task": "campaignd-test-walk", "base_seed": 8, "seeds": 12, "workers": 2}`)
	st := decodeStatus(t, resp)

	r, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", r.Status)
	}
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	var (
		kinds  []string
		events []Event
	)
	sc := bufio.NewScanner(r.Body)
	kind, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if data == "" {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event %q: %v", data, err)
			}
			kinds = append(kinds, kind)
			events = append(events, ev)
			kind, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last, lastKind := events[len(events)-1], kinds[len(kinds)-1]
	if lastKind != "done" || last.State != StateDone {
		t.Fatalf("last event %s %+v", lastKind, last)
	}
	for _, k := range kinds[:len(kinds)-1] {
		if k != "progress" {
			t.Fatalf("non-progress event before terminal: %v", kinds)
		}
	}
	if last.SeedsDone != 12 || last.ShardsDone != 6 {
		t.Fatalf("terminal event progress: %+v", last)
	}
	if len(last.Aggregates) == 0 {
		t.Fatal("terminal event carries no aggregates")
	}
	// Done must be monotonic along the stream.
	for i := 1; i < len(events); i++ {
		if events[i].SeedsDone < events[i-1].SeedsDone {
			t.Fatalf("seeds-done regressed: %+v", events)
		}
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Options{ShardSize: 4})
	resp := postJSON(t, ts.URL+"/v1/campaigns",
		`{"task": "campaignd-test-walk", "base_seed": 2, "seeds": 8, "workers": 2}`)
	st := decodeStatus(t, resp)
	// Wait for completion so the counters are settled.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeStatus(t, r)
		r.Body.Close()
		if cur.State == StateDone {
			break
		}
		if cur.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("job state %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hr.Status)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(mr.Body)
	body := buf.String()
	for _, want := range []string{
		"campaignd_jobs_submitted_total 1",
		"campaignd_shards_completed_total 2",
		"campaignd_seeds_completed_total 8",
		`campaignd_jobs{state="done"} 1`,
		fmt.Sprintf("campaignd_job_shards_done{job=%q,task=%q} 2", st.ID, "campaignd-test-walk"),
		fmt.Sprintf("campaignd_job_shards_total{job=%q,task=%q} 2", st.ID, "campaignd-test-walk"),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}
