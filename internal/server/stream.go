package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/findings"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/pkg/api"
)

// streamWriter serializes NDJSON records onto one response, interleaving
// keepalive heartbeats whenever the analysis goes quiet. Every send
// flushes, so a record reaches the client the moment the file finishes —
// that is the endpoint's whole point, and it is what the statusRecorder
// Flush forwarding exists for.
//
// Sends come from the extraction pool's worker goroutines concurrently
// with the heartbeat ticker, hence the mutex. The first failed write
// marks the stream dead (the client is gone; later records are dropped)
// and feeds the shared response-write-error counter.
type streamWriter struct {
	s    *Server
	mu   sync.Mutex
	enc  *json.Encoder
	rc   *http.ResponseController
	dead bool
	quit chan struct{}
	done chan struct{}
}

// startStream commits the 200 and the NDJSON content type (after this,
// failures can only be reported on-stream) and starts the heartbeat
// ticker. Callers must end() it before returning.
func (s *Server) startStream(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{
		s:    s,
		enc:  json.NewEncoder(w),
		rc:   http.NewResponseController(w),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	sw.flushLocked()
	go sw.heartbeatLoop(s.cfg.StreamHeartbeat)
	return sw
}

func (sw *streamWriter) heartbeatLoop(interval time.Duration) {
	defer close(sw.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sw.quit:
			return
		case <-t.C:
			sw.send(api.StreamRecord{Type: api.StreamTypeHeartbeat})
		}
	}
}

// send writes one record and flushes it out.
func (sw *streamWriter) send(rec api.StreamRecord) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.dead {
		return
	}
	if err := sw.enc.Encode(rec); err != nil {
		sw.dead = true
		sw.s.countWriteError(err)
		return
	}
	sw.flushLocked()
}

func (sw *streamWriter) flushLocked() {
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		sw.dead = true
		sw.s.countWriteError(err)
	}
}

// sendError converts a mid-stream failure into the trailing error record —
// the status line is long gone, so this is the only honest channel left.
func (sw *streamWriter) sendError(err error) {
	code := api.CodeInternal
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		code = api.CodeDeadline
	}
	sw.send(api.StreamRecord{Type: api.StreamTypeError, Err: &api.Error{Code: code, Error: err.Error()}})
}

// end stops the heartbeat ticker and waits it out, so no heartbeat can
// trail the summary record.
func (sw *streamWriter) end() {
	close(sw.quit)
	<-sw.done
}

// handleAnalyzeStream is POST /v1/analyze/stream: the batch /v1/analyze
// pipeline with per-file completion records pushed as the worker pool
// finishes each file. Record content is deterministic in the tree bytes;
// only arrival order is scheduling-dependent. The final summary record
// carries exactly the AnalyzeResponse the batch endpoint would return.
func (s *Server) handleAnalyzeStream(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	tree, ok := s.decodeTree(w, r, &req, &req.Tree)
	if !ok {
		return
	}
	s.streamPass(w, r, "analyze_stream", req.TimeoutMS, tree, core.Pass{Features: true}, findings.SevInfo,
		func(ctx context.Context, ext *core.Extraction) api.StreamRecord {
			if req.Trace {
				ext.Diagnostics.Trace = trace.Summarize(trace.SpanFromContext(ctx))
			}
			return api.StreamRecord{Type: api.StreamTypeSummary, Analyze: &api.AnalyzeResponse{
				Features:    ext.Features,
				Diagnostics: ext.Diagnostics,
			}}
		})
}

// handleFindingsStream is POST /v1/findings/stream: per-file findings
// pushed as each file's producers finish, then a summary carrying the
// batch report. Each record's findings are already severity-filtered and
// sorted; concatenating the records in tree (path-sorted) order
// reproduces the batch report byte-for-byte, because the batch sort key
// (file, line, rule, message) groups by file first.
func (s *Server) handleFindingsStream(w http.ResponseWriter, r *http.Request) {
	var req api.FindingsRequest
	tree, ok := s.decodeTree(w, r, &req, &req.Tree)
	if !ok {
		return
	}
	sev, err := findings.ParseSeverity(req.MinSeverity)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	s.streamPass(w, r, "findings_stream", req.TimeoutMS, tree, core.Pass{Findings: true}, sev,
		func(_ context.Context, ext *core.Extraction) api.StreamRecord {
			rep, _ := ext.Findings()
			return api.StreamRecord{Type: api.StreamTypeSummary, Findings: &api.FindingsResponse{
				Report:      rep.MinSeverity(sev),
				Diagnostics: degradedOnly(ext.Diagnostics),
			}}
		})
}

// streamPass runs the per-file pass p over tree in a worker slot and
// streams it: one file record (with its findings at or above sev, if any)
// per file as the pool finishes it, then the record summary builds.
func (s *Server) streamPass(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMS int64, tree *metrics.Tree, p core.Pass, sev findings.Severity, summary func(context.Context, *core.Extraction) api.StreamRecord) {
	s.withSlot(w, r, endpoint, timeoutMS, func(ctx context.Context) error {
		// Admission rejections (429/504 above) answered as plain JSON; from
		// here on the stream owns the response.
		sw := s.startStream(w)
		defer sw.end()
		ext, err := s.extract(ctx, tree, p, func(i int, f core.FileFacts) {
			sw.send(api.StreamRecord{Type: api.StreamTypeFile, File: &api.StreamFile{
				Path:     f.Path,
				Status:   string(f.Status),
				Detail:   f.Detail,
				Findings: (&findings.Report{Findings: f.Findings}).MinSeverity(sev).Findings,
			}})
		})
		if err != nil {
			sw.sendError(err)
			return nil // answered on-stream; withSlot must not write again
		}
		sw.send(summary(ctx, ext))
		return nil
	})
}
