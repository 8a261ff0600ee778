package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/pkg/nanoxbar"
)

// readEvents posts a jobs body and parses the full NDJSON stream.
func readEvents(t *testing.T, url string, body any) (int, []nanoxbar.Event) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		// Re-encode the error body as a single pseudo-event for callers
		// asserting on failures.
		var er nanoxbar.ErrorResponse
		if err := json.Unmarshal(buf.Bytes(), &er); err != nil {
			t.Fatalf("status %d with unparsable error body %q", resp.StatusCode, buf.String())
		}
		return resp.StatusCode, []nanoxbar.Event{{Type: nanoxbar.EventError, Error: &er.Error}}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var evs []nanoxbar.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev nanoxbar.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, evs
}

func TestV2JobsBatchStreaming(t *testing.T) {
	ts := newTestServer(t)
	var jobs nanoxbar.JobsRequest
	for i := 0; i < 20; i++ {
		jobs.Requests = append(jobs.Requests, engine.Request{
			Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "maj3"},
			Density: 0.05, Seed: int64(i),
		})
	}
	code, evs := readEvents(t, ts.URL, jobs)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if last := evs[len(evs)-1]; last.Type != nanoxbar.EventDone ||
		last.Done == nil || last.Done.Results != 20 || last.Done.Errors != 0 {
		t.Fatalf("bad done event: %+v", evs[len(evs)-1])
	}
	seen := make(map[int]bool)
	for _, ev := range evs[:len(evs)-1] {
		if ev.Type != nanoxbar.EventResult || ev.Result == nil || ev.Result.Map == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		if seen[ev.Index] {
			t.Fatalf("request %d resolved twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != 20 {
		t.Fatalf("resolved %d of 20 requests", len(seen))
	}
}

func TestV2JobsDieStreaming(t *testing.T) {
	ts := newTestServer(t)
	const chips = 16
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{
		StreamDies: true,
		Requests: []engine.Request{{
			Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj3"},
			Density: 0.04, Chips: chips, Seed: 11,
		}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	dies, results := 0, 0
	dieSeen := make(map[int]bool)
	for _, ev := range evs {
		switch ev.Type {
		case nanoxbar.EventDie:
			dies++
			if ev.DieMap == nil || ev.DieError != nil {
				t.Fatalf("bad die event %+v", ev)
			}
			dieSeen[ev.Die] = true
		case nanoxbar.EventResult:
			results++
			if ev.Result.Yield == nil || ev.Result.Yield.Chips != chips {
				t.Fatalf("bad yield result %+v", ev.Result)
			}
		}
	}
	if dies != chips || len(dieSeen) != chips {
		t.Fatalf("streamed %d die events (%d distinct), want %d", dies, len(dieSeen), chips)
	}
	if results != 1 {
		t.Fatalf("got %d result events, want 1", results)
	}
}

// TestV2JobsErrorEvents: request-level failures arrive as typed error
// events without disturbing the rest of the stream.
func TestV2JobsErrorEvents(t *testing.T) {
	ts := newTestServer(t)
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{Requests: []engine.Request{
		{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}},
		{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "not-a-benchmark"}},
	}})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var okEv, errEv *nanoxbar.Event
	for i := range evs {
		switch evs[i].Type {
		case nanoxbar.EventResult:
			okEv = &evs[i]
		case nanoxbar.EventError:
			errEv = &evs[i]
		}
	}
	if okEv == nil || okEv.Index != 0 || okEv.Result.Synthesis == nil {
		t.Fatalf("missing success event: %+v", okEv)
	}
	if errEv == nil || errEv.Index != 1 || errEv.Error == nil {
		t.Fatalf("missing error event: %+v", errEv)
	}
	if errEv.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("error code %q, want %q", errEv.Error.Code, apierr.CodeBadSpec)
	}
	if evs[len(evs)-1].Done.Errors != 1 {
		t.Fatalf("done.errors = %d, want 1", evs[len(evs)-1].Done.Errors)
	}
}

// TestV2StatusMapping is the HTTP half of the taxonomy contract for
// body-level failures: each gets a structured error with the right
// status and code.
func TestV2StatusMapping(t *testing.T) {
	ts := newTestServer(t)

	post := func(body string) (int, nanoxbar.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er nanoxbar.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("unparsable error body: %v", err)
		}
		return resp.StatusCode, er
	}

	if code, er := post(`{nope`); code != http.StatusBadRequest || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("malformed body: %d %+v", code, er)
	}
	// Oversized body: 413 from the MaxBytesReader bound. (Empty and
	// oversized job counts are TestBatchLimits.)
	huge := `{"requests":[{"kind":"map","function":{"expr":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}}]}`
	if code, er := post(huge); code != http.StatusRequestEntityTooLarge || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("oversized body: %d %+v", code, er)
	}
	// GET is rejected with a structured error too.
	resp, err := http.Get(ts.URL + "/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
	var er nanoxbar.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("GET error body: %+v (err %v)", er, err)
	}
}
