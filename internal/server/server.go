// Package server implements secmetricd's HTTP serving layer: the paper's
// §5.3 loop — "the classifier can give the developer an evaluation ... of
// every change" — as a long-lived daemon instead of a batch CLI. One
// process loads trained models at startup, holds a shared content-addressed
// feature cache, and serves scoring, analysis, findings, and comparison
// over JSON-encoded source trees.
//
// The serving path reuses the library machinery end-to-end: each request
// runs through the per-file pass, core.Extract (the same engine behind
// secmetric.AnalyzeTreeWithDiagnostics), under a per-request
// context.Context deadline, on a bounded worker pool with an explicit
// queue-depth limit. A request that arrives when the queue is full is
// rejected immediately with 429 — bounded memory under overload — and one
// that outlives its deadline fails with 504 without harming the process.
// Models live in a Registry of atomic snapshots, so POST /v1/models/reload
// swaps the whole model set at once while in-flight requests finish on the
// snapshot they started with.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"path"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/funcrank"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/internal/store/query"
	"repro/internal/trace"
	"repro/pkg/api"
)

// Config tunes the serving pipeline.
type Config struct {
	// Workers bounds how many requests may analyze concurrently; <= 0 uses
	// GOMAXPROCS. Each admitted request holds one slot for its whole
	// analysis.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a slot on
	// top of the Workers running ones; further requests are rejected with
	// 429. Negative means 0 (no waiting room).
	QueueDepth int
	// RequestTimeout is the hard per-request deadline; <= 0 defaults to
	// 2 minutes. A request's timeout_ms field can tighten it, never extend.
	RequestTimeout time.Duration
	// AnalyzeJobs bounds the per-file extraction pool inside one request;
	// <= 0 uses every core.
	AnalyzeJobs int
	// FileTimeout bounds one file's deep analysis (see
	// secmetric.AnalyzeConfig.FileTimeout).
	FileTimeout time.Duration
	// Cache is the shared process-wide feature cache; nil uses a fresh
	// in-memory cache.
	Cache *featcache.Cache
	// MaxBodyBytes caps a request body's size; a client that streams more
	// is cut off and answered 413 instead of growing the daemon's heap
	// without bound. <= 0 uses 32 MiB.
	MaxBodyBytes int64
	// MaxSessions bounds the per-repo incremental session registry behind
	// /v1/delta; the least-recently-used session is evicted beyond it.
	// <= 0 uses 64.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this; an expired
	// session's next non-seeding changeset answers 409 stale_session.
	// <= 0 uses 1 hour.
	SessionTTL time.Duration
	// History is the findings time-series the daemon records scoring
	// requests into and serves POST /v1/query from; nil disables both
	// (queries answer 404 no_history). The server does not close it.
	History *findex.Store
	// StreamHeartbeat is the idle interval between keepalive records on
	// the NDJSON streaming endpoints; <= 0 uses 10 seconds. Tests shrink
	// it to observe heartbeats without a genuinely slow analysis.
	StreamHeartbeat time.Duration
}

// Session-registry defaults applied when Config leaves them unset.
const (
	DefaultMaxSessions = 64
	DefaultSessionTTL  = time.Hour
)

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is unset: 32 MiB, roomy for a JSON-encoded source
// tree, far below anything that could OOM the process.
const DefaultMaxBodyBytes = 32 << 20

// DefaultStreamHeartbeat is the keepalive interval of the streaming
// endpoints when Config.StreamHeartbeat is unset.
const DefaultStreamHeartbeat = 10 * time.Second

// Server is the HTTP daemon. Construct with New, mount Handler.
type Server struct {
	cfg      Config
	reg      *Registry
	tel      *telemetry
	sem      chan struct{}
	slots    int
	start    time.Time
	sessions *sessionPool

	// ecfg configures every per-file pass of this server, batch and delta
	// alike: pool width, per-file deadline, the shared feature cache, and
	// the flight that dedups identical in-flight passes across concurrent
	// requests and sessions. Sharing it keeps the incremental and cold
	// paths byte-identical and runs a racing pair's analysis once.
	ecfg core.ExtractConfig
	// coalesced dedups identical whole requests on /v1/score and /v1/rank.
	coalesced *coalescer

	// logWriteErrOnce gates the single log line behind the response-write
	// error counter.
	logWriteErrOnce sync.Once

	// historyRuns / historyErrors count run recordings into cfg.History.
	// Recording is best-effort: a failed append never fails the scoring
	// request that triggered it, it only moves this counter.
	historyRuns   atomic.Uint64
	historyErrors atomic.Uint64

	// testHookAcquired, when non-nil, runs on the request goroutine right
	// after a worker slot is acquired and before any analysis. Tests use
	// it to hold slots open (backpressure) or outlive deadlines; production
	// code never sets it.
	testHookAcquired func(endpoint string)
}

// New builds a server over a populated registry.
func New(reg *Registry, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = DefaultStreamHeartbeat
	}
	ecfg := core.ExtractConfig{
		Jobs:        cfg.AnalyzeJobs,
		Cache:       cfg.Cache,
		FileTimeout: cfg.FileTimeout,
		Flight:      core.NewExtractFlight(),
	}
	if ecfg.Cache == nil {
		ecfg.Cache = featcache.NewMemory()
	}
	return &Server{
		cfg:       cfg,
		reg:       reg,
		tel:       newTelemetry(),
		sem:       make(chan struct{}, cfg.Workers),
		slots:     cfg.Workers,
		start:     time.Now(),
		ecfg:      ecfg,
		coalesced: newCoalescer(),
		sessions:  newSessionPool(cfg.MaxSessions, cfg.SessionTTL, ecfg),
	}
}

// Handler mounts the daemon's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("POST /v1/score", s.instrument("score", s.handleScore))
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/analyze/stream", s.instrument("analyze_stream", s.handleAnalyzeStream))
	mux.HandleFunc("POST /v1/findings", s.instrument("findings", s.handleFindings))
	mux.HandleFunc("POST /v1/findings/stream", s.instrument("findings_stream", s.handleFindingsStream))
	mux.HandleFunc("POST /v1/compare", s.instrument("compare", s.handleCompare))
	mux.HandleFunc("POST /v1/delta", s.instrument("delta", s.handleDelta))
	mux.HandleFunc("POST /v1/rank", s.instrument("rank", s.handleRank))
	mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("POST /v1/models/reload", s.instrument("reload", s.handleReload))
	return mux
}

// statusRecorder captures the response code for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so handlers behind instrument can
// stream: embedding http.ResponseWriter alone would satisfy the interface
// set of the embedded value minus anything the wrapper shadows, but
// type-asserting the wrapper to http.Flusher must keep working — the
// streaming endpoints depend on a mid-handler flush reaching the client
// before the handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, the
// forward-compatible way to reach optional interfaces through wrappers.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with latency and status accounting.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		s.tel.observe(endpoint, rec.code, time.Since(t0).Seconds())
	}
}

// writeJSON writes one JSON response body. A failed encode after the
// header is out (almost always a client that hung up mid-body) cannot be
// reported to that client, but it must not vanish either: the daemon
// counts it (secmetricd_response_write_errors_total) and logs the first
// occurrence, so a truncated-body epidemic is visible operationally
// instead of leaving both sides with no record.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.countWriteError(err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, api.Error{Code: code, Error: msg})
}

// countWriteError accounts one failed response write. Logging is
// once-per-process: the counter carries the rate, the single log line
// carries a concrete example without flooding under a disconnect storm.
func (s *Server) countWriteError(err error) {
	s.tel.writeErrors.Add(1)
	s.logWriteErrOnce.Do(func() {
		log.Printf("response write failed (now counted in secmetricd_response_write_errors_total): %v", err)
	})
}

// requestTimeout resolves the effective deadline: the server maximum,
// tightened by a positive timeout_ms.
func (s *Server) requestTimeout(timeoutMS int64) time.Duration {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// withSlot runs fn under the admission discipline: queue-depth check (429
// on overflow), bounded worker pool, per-request deadline (504 on expiry,
// whether it hits while waiting for a slot or mid-analysis). fn gets the
// deadline-bearing context and must return the analysis error, if any.
//
// Every admitted request runs under a root span whose context fn receives,
// so the library's extraction spans attach to it; when the request
// finishes, the per-phase busy totals feed the phase_seconds_total metric.
// Rejected (429) requests pay nothing: the tracer is created only after
// admission.
func (s *Server) withSlot(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMS int64, fn func(ctx context.Context) error) {
	q := s.tel.queued.Add(1)
	defer s.tel.queued.Add(-1)
	if int(q) > s.slots+s.cfg.QueueDepth {
		s.tel.queueFull.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeErr(w, http.StatusTooManyRequests, api.CodeQueueFull,
			fmt.Sprintf("queue full: %d running, %d waiting", s.slots, s.cfg.QueueDepth))
		return
	}
	tr := trace.New("request")
	tr.Root().SetLabel(endpoint)
	defer func() {
		tr.Finish()
		s.tel.observePhases(tr.PhaseTotals())
	}()
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(timeoutMS))
	defer cancel()
	ws := tr.Root().Child("wait")
	select {
	case s.sem <- struct{}{}:
		ws.End()
	case <-ctx.Done():
		ws.End()
		s.writeErr(w, http.StatusGatewayTimeout, api.CodeDeadline,
			"deadline exceeded while waiting for a worker slot")
		return
	}
	s.tel.inFlight.Add(1)
	defer func() {
		s.tel.inFlight.Add(-1)
		<-s.sem
	}()
	if s.testHookAcquired != nil {
		s.testHookAcquired(endpoint)
	}
	if ctx.Err() != nil {
		s.writeErr(w, http.StatusGatewayTimeout, api.CodeDeadline, "deadline exceeded before analysis started")
		return
	}
	t0 := time.Now()
	if err := fn(trace.ContextWithSpan(ctx, tr.Root())); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.writeErr(w, http.StatusGatewayTimeout, api.CodeDeadline, err.Error())
			return
		}
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	// Successful service times feed the EWMA behind Retry-After: the hint
	// tracks how long real work has been taking lately, not the config.
	s.tel.observeService(time.Since(t0).Seconds())
}

// retryAfterSeconds derives the 429 Retry-After hint from live load: the
// time the backlog ahead of a retry needs to drain at the recently
// observed per-request service time across the worker pool, bounded to
// [1, 30] seconds and jittered upward by up to ~25% so a burst rejected
// together does not retry together (the router multiplies 429 fan-out,
// and a synchronized herd would re-trip the queue it is waiting on).
func (s *Server) retryAfterSeconds() int {
	backlog := float64(s.tel.queued.Load())
	if backlog < 0 {
		backlog = 0
	}
	est := backlog * s.tel.recentServiceSeconds() / float64(s.slots)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	secs += rand.IntN(max(1, secs/4) + 1)
	if secs > 30 {
		secs = 30
	}
	return secs
}

// extract runs the per-file pass for one request against the shared
// feature cache and in-flight dedup table. fileDone is the streaming
// endpoints' per-file record source (nil for the batch endpoints).
func (s *Server) extract(ctx context.Context, tree *metrics.Tree, p core.Pass, fileDone func(i int, f core.FileFacts)) (*core.Extraction, error) {
	cfg := s.ecfg
	cfg.FileDone = fileDone
	return core.Extract(ctx, tree, cfg, p)
}

// degradedOnly returns d when some file degraded and nil otherwise, so the
// endpoints that carry diagnostics only on degradation stay byte-identical
// when every file completed.
func degradedOnly(d *core.AnalysisDiagnostics) *core.AnalysisDiagnostics {
	if d.Clean() {
		return nil
	}
	return d
}

// toTree converts a wire tree to the analyzer's representation, applying
// the same discipline as the CLI's directory loader: languages inferred
// from extensions, dot-files and unrecognized extensions skipped, files
// sorted by path. An empty result (nothing analyzable) is an error.
func toTree(t api.Tree) (*metrics.Tree, error) {
	name := t.Name
	if name == "" {
		name = "tree"
	}
	out := &metrics.Tree{Name: name}
	for _, f := range t.Files {
		if f.Path == "" {
			return nil, errors.New("file with empty path")
		}
		if strings.HasPrefix(path.Base(f.Path), ".") {
			continue
		}
		l := lang.FromPath(f.Path)
		if l == lang.Unknown {
			continue
		}
		out.Files = append(out.Files, metrics.File{Path: f.Path, Language: l, Content: f.Content})
	}
	if len(out.Files) == 0 {
		return nil, fmt.Errorf("no analyzable source files in tree %q", name)
	}
	sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].Path < out.Files[j].Path })
	for i := 1; i < len(out.Files); i++ {
		if out.Files[i].Path == out.Files[i-1].Path {
			return nil, fmt.Errorf("duplicate file path %q", out.Files[i].Path)
		}
	}
	return out, nil
}

// decode reads the JSON request body under the configured size cap. A body
// that exceeds the cap answers 413 with the stable body_too_large code —
// the decoder surfaces *http.MaxBytesError the moment the reader passes
// the limit, so a hostile client can stream gigabytes and the daemon still
// buffers at most MaxBodyBytes of it.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: "+err.Error())
		return false
	}
	return true
}

// decodeTree is decode plus toTree of the request's tree (wire points
// into req), answering 400 itself when the tree is unusable.
func (s *Server) decodeTree(w http.ResponseWriter, r *http.Request, req any, wire *api.Tree) (*metrics.Tree, bool) {
	if !s.decode(w, r, req) {
		return nil, false
	}
	tree, err := toTree(*wire)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return nil, false
	}
	return tree, true
}

// record persists the findings the request's own pass kept into the
// history, keyed by the tree's name. It runs synchronously inside the
// request's worker slot (the store has a single writer), but its outcome
// only moves counters: a full disk, or findings left incomplete by a
// degraded file, counts a history error and never fails the request.
func (s *Server) record(ctx context.Context, source string, tree *metrics.Tree, ext *core.Extraction, score float64, hasScore bool) {
	if s.cfg.History == nil {
		return
	}
	rs := trace.SpanFromContext(ctx).Child("record")
	defer rs.End()
	rep, complete := ext.Findings()
	if !complete {
		s.historyErrors.Add(1)
		return
	}
	run := findex.NewRun(tree.Name, source, rep)
	if hasScore {
		run = run.WithScore(score)
	}
	if _, err := s.cfg.History.Append(run); err != nil {
		s.historyErrors.Add(1)
		return
	}
	s.historyRuns.Add(1)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Parse before admission: a syntax error should cost no worker slot.
	q, err := query.Parse(req.Query)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if s.cfg.History == nil {
		s.writeErr(w, http.StatusNotFound, api.CodeNoHistory,
			"this daemon records no history; start it with -db to enable /v1/query")
		return
	}
	s.withSlot(w, r, "query", req.TimeoutMS, func(ctx context.Context) error {
		runs, ex, err := s.cfg.History.Query(q, findex.Options{ForceFullScan: req.FullScan})
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.writeJSON(w, http.StatusOK, api.QueryResponse{
			Runs: runs,
			Explain: api.QueryExplain{
				Index:      ex.Index,
				FullScan:   ex.FullScan,
				Candidates: ex.Candidates,
				Matched:    ex.Matched,
			},
		})
		return nil
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req api.ScoreRequest
	tree, ok := s.decodeTree(w, r, &req, &req.Tree)
	if !ok {
		return
	}
	model, name, ok := s.reg.Snapshot().Get(req.Model)
	if !ok {
		s.writeErr(w, http.StatusNotFound, api.CodeUnknownModel, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	run := func(w http.ResponseWriter) {
		s.withSlot(w, r, "score", req.TimeoutMS, func(ctx context.Context) error {
			// With history on, the same pass keeps the findings record() persists.
			ext, err := s.extract(ctx, tree, core.Pass{Features: true, Findings: s.cfg.History != nil}, nil)
			if err != nil {
				return err
			}
			diag := ext.Diagnostics
			sc := trace.SpanFromContext(ctx).Child("score")
			rep := model.Score(req.Tree.Name, ext.Features)
			sc.End()
			s.record(ctx, "score", tree, ext, rep.RiskScore, true)
			if req.Trace {
				diag.Trace = trace.Summarize(trace.SpanFromContext(ctx))
			}
			s.writeJSON(w, http.StatusOK, api.ScoreResponse{
				Model:       name,
				Report:      rep,
				Diagnostics: diag,
			})
			return nil
		})
	}
	if req.Trace {
		// A trace is this execution's account; adopting another request's
		// would be a lie, so traced requests always run themselves.
		run(w)
		return
	}
	// The key carries the resolved model name, so "model":"" and an explicit
	// request for the default coalesce together.
	s.coalesce(w, r, "score", scoreKey(name, req.Tree), req.TimeoutMS, run)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	tree, ok := s.decodeTree(w, r, &req, &req.Tree)
	if !ok {
		return
	}
	s.withSlot(w, r, "analyze", req.TimeoutMS, func(ctx context.Context) error {
		ext, err := s.extract(ctx, tree, core.Pass{Features: true}, nil)
		if err != nil {
			return err
		}
		diag := ext.Diagnostics
		if req.Trace {
			diag.Trace = trace.Summarize(trace.SpanFromContext(ctx))
		}
		s.writeJSON(w, http.StatusOK, api.AnalyzeResponse{Features: ext.Features, Diagnostics: diag})
		return nil
	})
}

func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
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
	s.withSlot(w, r, "findings", req.TimeoutMS, func(ctx context.Context) error {
		ext, err := s.extract(ctx, tree, core.Pass{Findings: true}, nil)
		if err != nil {
			return err
		}
		rep, _ := ext.Findings()
		s.writeJSON(w, http.StatusOK, api.FindingsResponse{
			Report:      rep.MinSeverity(sev),
			Diagnostics: degradedOnly(ext.Diagnostics),
		})
		return nil
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req api.RankRequest
	tree, ok := s.decodeTree(w, r, &req, &req.Tree)
	if !ok {
		return
	}
	if req.Top < 0 {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "top must be >= 0")
		return
	}
	run := func(w http.ResponseWriter) {
		s.withSlot(w, r, "rank", req.TimeoutMS, func(ctx context.Context) error {
			ranking, ext, err := funcrank.RankWith(ctx, tree,
				funcrank.Config{Jobs: s.cfg.AnalyzeJobs, Top: req.Top},
				s.cfg.FileTimeout, s.cfg.History != nil)
			if err != nil {
				return err
			}
			s.record(ctx, "rank", tree, ext, 0, false)
			s.writeJSON(w, http.StatusOK, api.RankResponse{
				Ranking:     ranking,
				Diagnostics: degradedOnly(ext.Diagnostics),
			})
			return nil
		})
	}
	s.coalesce(w, r, "rank", rankKey(req.Top, req.Tree), req.TimeoutMS, run)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req api.CompareRequest
	if !s.decode(w, r, &req) {
		return
	}
	oldTree, err := toTree(req.Old)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "old: "+err.Error())
		return
	}
	newTree, err := toTree(req.New)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "new: "+err.Error())
		return
	}
	model, name, ok := s.reg.Snapshot().Get(req.Model)
	if !ok {
		s.writeErr(w, http.StatusNotFound, api.CodeUnknownModel, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	s.withSlot(w, r, "compare", req.TimeoutMS, func(ctx context.Context) error {
		// Both versions run inside one slot against the shared cache, so
		// only the files the change touched are deep-analyzed twice.
		oldExt, err := s.extract(ctx, oldTree, core.Pass{Features: true}, nil)
		if err != nil {
			return err
		}
		// History records the new version — the one the gate is deciding on.
		newExt, err := s.extract(ctx, newTree, core.Pass{Features: true, Findings: s.cfg.History != nil}, nil)
		if err != nil {
			return err
		}
		oldDiag, newDiag := oldExt.Diagnostics, newExt.Diagnostics
		cs := trace.SpanFromContext(ctx).Child("score")
		cmp := model.Compare(req.Old.Name, oldExt.Features, req.New.Name, newExt.Features)
		cs.End()
		s.record(ctx, "compare", newTree, newExt, cmp.NewScore, true)
		if req.Trace {
			// One summary covers the whole request (both analyses); it
			// rides on the new version's diagnostics.
			newDiag.Trace = trace.Summarize(trace.SpanFromContext(ctx))
		}
		s.writeJSON(w, http.StatusOK, api.CompareResponse{
			Model:          name,
			Comparison:     cmp,
			OldDiagnostics: oldDiag,
			NewDiagnostics: newDiag,
		})
		return nil
	})
}

// toChangeset converts a wire changeset with the exact per-file
// discipline toTree applies to whole trees: dot-files and unrecognized
// extensions are silently dropped (from Removed too — such paths were
// never admitted into a session, so removing one must not read as stale),
// empty paths are an error, languages come from extensions. Uniqueness
// across the three lists is the session's own validation.
func toChangeset(cs api.Changeset) (core.Changeset, error) {
	var out core.Changeset
	admit := func(p string) (lang.Language, bool, error) {
		if p == "" {
			return lang.Unknown, false, errors.New("changeset contains an empty file path")
		}
		if strings.HasPrefix(path.Base(p), ".") {
			return lang.Unknown, false, nil
		}
		l := lang.FromPath(p)
		return l, l != lang.Unknown, nil
	}
	for _, f := range cs.Added {
		l, ok, err := admit(f.Path)
		if err != nil {
			return core.Changeset{}, err
		}
		if ok {
			out.Added = append(out.Added, metrics.File{Path: f.Path, Language: l, Content: f.Content})
		}
	}
	for _, f := range cs.Modified {
		l, ok, err := admit(f.Path)
		if err != nil {
			return core.Changeset{}, err
		}
		if ok {
			out.Modified = append(out.Modified, metrics.File{Path: f.Path, Language: l, Content: f.Content})
		}
	}
	for _, p := range cs.Removed {
		_, ok, err := admit(p)
		if err != nil {
			return core.Changeset{}, err
		}
		if ok {
			out.Removed = append(out.Removed, p)
		}
	}
	if out.Empty() {
		return core.Changeset{}, errors.New("changeset carries no analyzable files")
	}
	return out, nil
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req api.DeltaRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.RepoID == "" {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "repo_id is required")
		return
	}
	cs, err := toChangeset(req.Changeset)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	model, name, ok := s.reg.Snapshot().Get(req.Model)
	if !ok {
		s.writeErr(w, http.StatusNotFound, api.CodeUnknownModel, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	s.withSlot(w, r, "delta", req.TimeoutMS, func(ctx context.Context) error {
		t0 := time.Now()
		sess := s.sessions.acquire(req.RepoID)
		res, err := sess.Apply(ctx, cs)
		if err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				return err // withSlot turns these into 504
			case errors.Is(err, core.ErrStaleSession):
				s.writeErr(w, http.StatusConflict, api.CodeStaleSession, err.Error())
				return nil
			default:
				// Validation problems (empty changeset, duplicate paths,
				// would-empty) left the session untouched.
				s.writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
				return nil
			}
		}
		sc := trace.SpanFromContext(ctx).Child("score")
		subject := fmt.Sprintf("%s@%d", req.RepoID, res.Seq)
		rep := model.Score(subject, res.Features)
		var cmp *secmetric.Comparison
		if res.OldFeatures != nil {
			cmp = model.Compare(fmt.Sprintf("%s@%d", req.RepoID, res.Seq-1), res.OldFeatures, subject, res.Features)
		}
		sc.End()
		if req.Trace && res.Diagnostics != nil {
			res.Diagnostics.Trace = trace.Summarize(trace.SpanFromContext(ctx))
		}
		s.writeJSON(w, http.StatusOK, api.DeltaResponse{
			Model:       name,
			RepoID:      req.RepoID,
			Seq:         res.Seq,
			Files:       res.Files,
			Report:      rep,
			Comparison:  cmp,
			ElapsedMS:   time.Since(t0).Milliseconds(),
			Diagnostics: res.Diagnostics,
		})
		return nil
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := s.reg.Load()
	if err != nil {
		// The previous snapshot keeps serving; the caller learns exactly
		// which model file was refused and why.
		s.writeErr(w, http.StatusInternalServerError, api.CodeReloadFailed, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, api.ReloadResponse{Models: snap.Names(), DefaultModel: snap.Default})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	s.writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        snap.Names(),
		DefaultModel:  snap.Default,
		InFlight:      s.tel.inFlight.Load(),
		Queued:        s.tel.queued.Load(),
		Reloads:       s.reg.Reloads(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.tel.write(w)
	hits, misses := s.ecfg.Cache.Stats()
	fmt.Fprintln(w, "# HELP secmetricd_featcache_hits_total Shared feature-cache hits.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_hits_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP secmetricd_featcache_misses_total Shared feature-cache misses.")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_misses_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP secmetricd_featcache_corrupt_total Disk cache entries that failed validation on read (counted, then treated as misses).")
	fmt.Fprintln(w, "# TYPE secmetricd_featcache_corrupt_total counter")
	fmt.Fprintf(w, "secmetricd_featcache_corrupt_total %d\n", s.ecfg.Cache.CorruptReads())
	fmt.Fprintln(w, "# HELP secmetricd_coalesced_total Work answered by adopting a concurrent identical execution: kind=\"file\" is per-file deep analyses, kind=\"request\" is whole /v1/score and /v1/rank requests.")
	fmt.Fprintln(w, "# TYPE secmetricd_coalesced_total counter")
	fmt.Fprintf(w, "secmetricd_coalesced_total{kind=\"file\"} %d\n", s.ecfg.Flight.Coalesced())
	creq := s.tel.coalescedSnapshot()
	eps := make([]string, 0, len(creq))
	for ep := range creq {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(w, "secmetricd_coalesced_total{kind=\"request\",endpoint=%q} %d\n", ep, creq[ep])
	}
	fmt.Fprintln(w, "# HELP secmetricd_models_loaded Models in the current registry snapshot.")
	fmt.Fprintln(w, "# TYPE secmetricd_models_loaded gauge")
	fmt.Fprintf(w, "secmetricd_models_loaded %d\n", len(s.reg.Snapshot().Models))
	fmt.Fprintln(w, "# HELP secmetricd_model_reloads_total Successful registry loads since start.")
	fmt.Fprintln(w, "# TYPE secmetricd_model_reloads_total counter")
	fmt.Fprintf(w, "secmetricd_model_reloads_total %d\n", s.reg.Reloads())
	active, evicted := s.sessions.stats()
	fmt.Fprintln(w, "# HELP secmetricd_sessions_active Live incremental sessions in the delta registry.")
	fmt.Fprintln(w, "# TYPE secmetricd_sessions_active gauge")
	fmt.Fprintf(w, "secmetricd_sessions_active %d\n", active)
	fmt.Fprintln(w, "# HELP secmetricd_session_evictions_total Sessions dropped by LRU capacity or idle TTL.")
	fmt.Fprintln(w, "# TYPE secmetricd_session_evictions_total counter")
	fmt.Fprintf(w, "secmetricd_session_evictions_total %d\n", evicted)
	if s.cfg.History != nil {
		fmt.Fprintln(w, "# HELP secmetricd_history_runs_total Analysis runs recorded into the -db findings history.")
		fmt.Fprintln(w, "# TYPE secmetricd_history_runs_total counter")
		fmt.Fprintf(w, "secmetricd_history_runs_total %d\n", s.historyRuns.Load())
		fmt.Fprintln(w, "# HELP secmetricd_history_errors_total Failed history appends (the scoring request itself still succeeded).")
		fmt.Fprintln(w, "# TYPE secmetricd_history_errors_total counter")
		fmt.Fprintf(w, "secmetricd_history_errors_total %d\n", s.historyErrors.Load())
		st := s.cfg.History.Stats()
		fmt.Fprintln(w, "# HELP secmetricd_store_bytes Length of the history store's log file.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_bytes gauge")
		fmt.Fprintf(w, "secmetricd_store_bytes %d\n", st.Bytes)
		fmt.Fprintln(w, "# HELP secmetricd_store_commits_total Runs appended to the history store since open.")
		fmt.Fprintln(w, "# TYPE secmetricd_store_commits_total counter")
		fmt.Fprintf(w, "secmetricd_store_commits_total %d\n", st.Appends)
	}
	fmt.Fprintln(w, "# HELP secmetricd_uptime_seconds Seconds since the daemon started.")
	fmt.Fprintln(w, "# TYPE secmetricd_uptime_seconds gauge")
	fmt.Fprintf(w, "secmetricd_uptime_seconds %g\n", time.Since(s.start).Seconds())
}
