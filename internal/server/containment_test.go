package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/pkg/api"
)

// victimPath is the file every containment case faults; wireTree puts it
// in every tree.
const victimPath = "main.mc"

// namesFile reports whether the JSON document (or any NDJSON line of it)
// contains an object naming path with the given status.
func namesFile(body []byte, path string, status core.FileStatus) bool {
	var walk func(v any) bool
	walk = func(v any) bool {
		switch x := v.(type) {
		case map[string]any:
			if x["path"] == path && x["status"] == string(status) {
				return true
			}
			for _, c := range x {
				if walk(c) {
					return true
				}
			}
		case []any:
			for _, c := range x {
				if walk(c) {
					return true
				}
			}
		}
		return false
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var v any
		if json.Unmarshal([]byte(line), &v) == nil && walk(v) {
			return true
		}
	}
	return false
}

// TestPerFileContainmentAtEveryEntryPoint injects a panic, and separately
// a stall past the file deadline, into one file's per-file pass and drives
// every analyzing entry point over a tree containing it. Each must answer
// 200 naming the file with the degraded status, record no history run
// from the incomplete findings, and leave the daemon serving.
func TestPerFileContainmentAtEveryEntryPoint(t *testing.T) {
	mA, _ := getModels(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	faults := []struct {
		name   string
		status core.FileStatus
		hook   func(metrics.File)
	}{
		{"panic", core.StatusPanic, func(f metrics.File) {
			if f.Path == victimPath {
				panic("injected analyzer bug")
			}
		}},
		{"stall", core.StatusTimeout, func(f metrics.File) {
			if f.Path == victimPath {
				<-release
			}
		}},
	}
	type endpoint struct {
		name     string
		recorded bool
		call     func(t *testing.T, base string) (*http.Response, []byte)
	}
	post := func(path string, body any) func(t *testing.T, base string) (*http.Response, []byte) {
		return func(t *testing.T, base string) (*http.Response, []byte) {
			return postJSON(t, base+path, body)
		}
	}
	endpoints := []endpoint{
		{"score", true, post("/v1/score", api.ScoreRequest{Tree: wireTree(1)})},
		{"compare", true, post("/v1/compare", api.CompareRequest{Old: wireTree(1), New: wireTree(2)})},
		{"rank", true, post("/v1/rank", api.RankRequest{Tree: wireTree(1)})},
		{"findings", false, post("/v1/findings", api.FindingsRequest{Tree: wireTree(1)})},
		{"findings_stream", false, post("/v1/findings/stream", api.FindingsRequest{Tree: wireTree(1)})},
		{"analyze_stream", false, post("/v1/analyze/stream", api.AnalyzeRequest{Tree: wireTree(1)})},
		{"delta", false, post("/v1/delta", api.DeltaRequest{RepoID: "r", Changeset: api.Changeset{Added: wireTree(1).Files}})},
		{"routed_score", true, func(t *testing.T, base string) (*http.Response, []byte) {
			rt, err := router.New(router.Config{Backends: []string{base}, HealthInterval: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			front := httptest.NewServer(rt.Handler())
			t.Cleanup(front.Close)
			return postJSON(t, front.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(3)})
		}},
	}

	for _, fault := range faults {
		for _, ep := range endpoints {
			t.Run(fault.name+"/"+ep.name, func(t *testing.T) {
				t.Cleanup(core.SetFileTestHook(fault.hook))
				reg := NewRegistry("", nil)
				reg.Register("default", mA)
				s, ts := newTestServer(t, reg, Config{
					Workers:         2,
					History:         openHistory(t),
					FileTimeout:     100 * time.Millisecond,
					StreamHeartbeat: time.Hour,
				})

				resp, body := ep.call(t, ts.URL)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				if !namesFile(body, victimPath, fault.status) {
					t.Fatalf("response does not name %s with status %s:\n%s", victimPath, fault.status, body)
				}
				if n := s.historyRuns.Load(); n != 0 {
					t.Fatalf("history recorded %d run(s) from incomplete findings", n)
				}
				if ep.recorded && s.historyErrors.Load() == 0 {
					t.Fatal("incomplete findings did not count a history error")
				}

				// The daemon keeps serving: a tree without the victim
				// scores cleanly and is recorded.
				clean := api.Tree{Name: "clean", Files: wireTree(4).Files[1:]}
				if resp, body := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: clean}); resp.StatusCode != http.StatusOK {
					t.Fatalf("follow-up score: status %d: %s", resp.StatusCode, body)
				}
				_, raw := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{})
				var q api.QueryResponse
				if err := json.Unmarshal(raw, &q); err != nil || len(q.Runs) != 1 || q.Runs[0].Repo != "clean" {
					t.Fatalf("history after follow-up = %s (err %v), want exactly the clean run", raw, err)
				}
			})
		}
	}
}
