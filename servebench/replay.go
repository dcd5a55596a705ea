package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	secmetric "repro"
	"repro/internal/absint"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/funcrank"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lexer"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/minic"
	"repro/internal/store/findex"
	"repro/internal/store/query"
	"repro/internal/symexec"
	"repro/pkg/api"
)

// The traced replay sends a workload's request sequence through each
// layer's public function, in pipeline order, with every call in its own
// span. Rows named in serveRows mirror what the daemon runs for a request;
// rows named in fileRows break core.extract / core.apply down per file and
// are replayed separately, so they are per-call costs, not additive.
var serveRows = []string{
	"api.decode_us", "core.extract_ms", "core.apply_ms", "ml.score_us",
	"funcrank.rank_ms", "findings.collect_ms", "findex.append_ms",
	"findex.query_ms", "api.encode_us",
}

var fileRows = []string{
	"lexer.tokenize_us", "metrics.scan_us", "lint.check_us", "findings.analyze_us",
	"ir.parse_lower_us", "dataflow.taint_us", "absint.analyze_us",
	"symexec.explore_us", "callgraph.build_us", "interp.profile_us",
	"featcache.put_us", "featcache.get_us",
}

// replayCount bounds how many requests of the sequence the replay covers.
var replayCount = map[string]int{
	wlScoreCold: 24,
	wlDeltaWarm: 200,
	wlFleetWarm: 40,
}

// span is one traced call. Spans of one request share Req; Parent indexes
// the causing span (-1 for a request root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// step is one layer call of a replayed request.
type step struct {
	row string
	fn  func() error
}

// replayState is the layers' state, prepared the way set-up prepares the
// daemon: a feature cache, a history store, and for delta_warm the seeded
// sessions.
type replayState struct {
	model    *secmetric.Model
	cache    *featcache.Cache
	store    *findex.Store
	sessions map[string]*core.Session
	// fileCache times featcache Put/Get apart from the pipeline's cache.
	fileCache *featcache.Cache
}

func newReplayState(dir string, model *secmetric.Model, in *inputs) (*replayState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := findex.Open(filepath.Join(dir, "history.db"))
	if err != nil {
		return nil, fmt.Errorf("open replay history: %w", err)
	}
	rs := &replayState{model: model, cache: featcache.NewMemory(), store: st,
		sessions: map[string]*core.Session{}, fileCache: featcache.NewMemory()}
	ctx := context.Background()
	cfg := core.ExtractConfig{Jobs: 1, Cache: rs.cache}
	for _, o := range in.warm {
		switch o.kind {
		case kindDelta:
			sess := core.NewSession(o.repo, cfg)
			if _, err := sess.Apply(ctx, core.Changeset{Added: append([]metrics.File(nil), in.repos[o.repo].Files...)}); err != nil {
				st.Close()
				return nil, err
			}
			rs.sessions[o.repo] = sess
		case kindScore:
			fv, err := core.ExtractFeaturesWith(ctx, o.tree, cfg)
			if err != nil {
				st.Close()
				return nil, err
			}
			run := findex.NewRun(o.repo, "score", findings.Collect(o.tree)).WithScore(model.Score(o.repo, fv).RiskScore)
			if _, err := st.Append(run); err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	return rs, nil
}

func (rs *replayState) close() { _ = rs.store.Close() } // deleted with its directory

// decodeBody mirrors the daemon's request decoding.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// toTree mirrors the daemon's wire-to-analyzer conversion.
func toTree(t api.Tree) *metrics.Tree {
	out := &metrics.Tree{Name: t.Name}
	for _, f := range t.Files {
		out.Files = append(out.Files, metrics.File{Path: f.Path, Language: lang.FromPath(f.Path), Content: f.Content})
	}
	sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].Path < out.Files[j].Path })
	return out
}

func encodeBody(v any) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(v)
}

// serveSteps are the calls the daemon makes for one request.
func (rs *replayState) serveSteps(o op) []step {
	ctx := context.Background()
	var (
		tree *metrics.Tree
		fv   metrics.FeatureVector
		diag *core.AnalysisDiagnostics
		rep  *secmetric.Report
		frep *findings.Report
	)
	// decodeTree decodes the body into req, whose tree field is wire.
	decodeTree := func(req any, wire *api.Tree) step {
		return step{"api.decode_us", func() error {
			if err := decodeBody(o.body, req); err != nil {
				return err
			}
			tree = toTree(*wire)
			return nil
		}}
	}
	collect := step{"findings.collect_ms", func() error { frep = findings.Collect(tree); return nil }}
	appendRun := func(scored bool) step {
		return step{"findex.append_ms", func() error {
			run := findex.NewRun(tree.Name, o.kind, frep)
			if scored {
				run = run.WithScore(rep.RiskScore)
			}
			_, err := rs.store.Append(run)
			return err
		}}
	}
	switch o.kind {
	case kindScore:
		var req api.ScoreRequest
		return []step{
			decodeTree(&req, &req.Tree),
			{"core.extract_ms", func() (err error) {
				fv, diag, err = core.ExtractFeaturesDiagnostics(ctx, tree, core.ExtractConfig{Jobs: 1, Cache: rs.cache})
				return err
			}},
			{"ml.score_us", func() error { rep = rs.model.Score(req.Tree.Name, fv); return nil }},
			collect,
			appendRun(true),
			{"api.encode_us", func() error {
				return encodeBody(api.ScoreResponse{Model: modelName, Report: rep, Diagnostics: diag})
			}},
		}
	case kindRank:
		var req api.RankRequest
		var ranking *funcrank.Ranking
		return []step{
			decodeTree(&req, &req.Tree),
			{"funcrank.rank_ms", func() (err error) {
				ranking, err = funcrank.Rank(ctx, tree, funcrank.Config{Jobs: 1})
				return err
			}},
			collect,
			appendRun(false),
			{"api.encode_us", func() error { return encodeBody(api.RankResponse{Ranking: ranking}) }},
		}
	case kindDelta:
		var (
			req api.DeltaRequest
			cs  core.Changeset
			res *core.ApplyResult
			cmp *secmetric.Comparison
		)
		return []step{
			{"api.decode_us", func() error {
				if err := decodeBody(o.body, &req); err != nil {
					return err
				}
				for _, f := range req.Changeset.Modified {
					cs.Modified = append(cs.Modified, metrics.File{Path: f.Path, Language: lang.FromPath(f.Path), Content: f.Content})
				}
				return nil
			}},
			{"core.apply_ms", func() (err error) {
				res, err = rs.sessions[req.RepoID].Apply(ctx, cs)
				return err
			}},
			{"ml.score_us", func() error {
				subject := fmt.Sprintf("%s@%d", req.RepoID, res.Seq)
				rep = rs.model.Score(subject, res.Features)
				cmp = rs.model.Compare(fmt.Sprintf("%s@%d", req.RepoID, res.Seq-1), res.OldFeatures, subject, res.Features)
				return nil
			}},
			{"api.encode_us", func() error {
				return encodeBody(api.DeltaResponse{Model: modelName, RepoID: req.RepoID, Seq: res.Seq, Files: res.Files,
					Report: rep, Comparison: cmp, Diagnostics: res.Diagnostics})
			}},
		}
	default: // kindQuery
		var (
			req  api.QueryRequest
			q    *query.Query
			runs []findex.Run
			ex   *findex.Explain
		)
		return []step{
			{"api.decode_us", func() (err error) {
				if err = decodeBody(o.body, &req); err != nil {
					return err
				}
				q, err = query.Parse(req.Query)
				return err
			}},
			{"findex.query_ms", func() (err error) {
				runs, ex, err = rs.store.Query(q, findex.Options{})
				return err
			}},
			{"api.encode_us", func() error {
				return encodeBody(api.QueryResponse{Runs: runs, Explain: api.QueryExplain{
					Index: ex.Index, FullScan: ex.FullScan, Candidates: ex.Candidates, Matched: ex.Matched}})
			}},
		}
	}
}

// analyzedFiles are the files a request hands to per-file analysis.
func analyzedFiles(o op) []metrics.File {
	switch o.kind {
	case kindScore, kindRank:
		return o.tree.Files
	case kindDelta:
		return []metrics.File{o.change}
	}
	return nil
}

// fileSteps are the per-file layers of the deep-analysis pipeline, each
// called through its public function, plus one feature-cache round trip
// with the entry the pipeline stores for the file.
func (rs *replayState) fileSteps(f metrics.File) []step {
	var (
		lowered *ir.Program
		cg      *callgraph.Graph
	)
	// onIR guards the layers that need the lowered program; a file that
	// does not parse as MiniC skips them, as in the pipeline.
	onIR := func(fn func()) func() error {
		return func() error {
			if lowered == nil {
				return errNotMiniC
			}
			fn()
			return nil
		}
	}
	steps := []step{
		{"lexer.tokenize_us", func() error { lexer.Tokenize(f.Content, f.Language); return nil }},
		{"metrics.scan_us", func() error { metrics.ScanFile(f); return nil }},
		{"lint.check_us", func() error { lint.CheckFile(f); return nil }},
		{"findings.analyze_us", func() error { findings.AnalyzeFile(f); return nil }},
		{"ir.parse_lower_us", func() error {
			prog, err := minic.Parse(f.Content)
			if err != nil {
				return errNotMiniC
			}
			if lowered, err = ir.Lower(prog); err != nil {
				return errNotMiniC
			}
			return nil
		}},
		{"dataflow.taint_us", onIR(func() { dataflow.CountTaintedSinks(lowered) })},
		{"absint.analyze_us", onIR(func() {
			for _, fn := range lowered.Funcs {
				absint.Analyze(fn, absint.DefaultConfig())
			}
		})},
		{"symexec.explore_us", onIR(func() {
			for _, fn := range lowered.Funcs {
				symexec.Explore(fn, symexec.DefaultConfig())
			}
		})},
		{"callgraph.build_us", onIR(func() { cg = callgraph.Build(lowered) })},
		{"interp.profile_us", onIR(func() {
			for _, root := range cg.Roots() {
				_, _ = interp.ProfileFunc(lowered, root, 24, 0xd1ce) // a failed profile is skipped, as in the pipeline
			}
		})},
	}
	key := featcache.Key(core.AnalysisVersion, f.Language.String(), f.Content)
	if payload, ok := rs.cache.Get(key); ok {
		steps = append(steps,
			step{"featcache.put_us", func() error { return rs.fileCache.Put(key, payload) }},
			step{"featcache.get_us", func() error { rs.fileCache.Get(key); return nil }})
	}
	return steps
}

var errNotMiniC = errors.New("file does not parse as MiniC")

// rowStats accumulates one row's calls.
type rowStats struct {
	calls   int
	ns      int64
	allocs  int
	allocKB float64
}

// replayResult is what the traced run reports.
type replayResult struct {
	rows     map[string]*rowStats
	requests int
	// serveNS sums the serving-path spans; cpuNS is the process CPU spent
	// in the serving pass.
	serveNS, cpuNS int64
	spans          []span
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replay runs three passes over the first replayCount requests: the
// serving pass and the per-file pass, each traced, then an untimed pass
// over fresh state that measures allocation per call.
func replay(dir string, model *secmetric.Model, in *inputs) (*replayResult, error) {
	n := min(len(in.ops), replayCount[in.workload])
	ops := in.ops[:n]
	res := &replayResult{rows: map[string]*rowStats{}, requests: n}
	row := func(name string) *rowStats {
		if res.rows[name] == nil {
			res.rows[name] = &rowStats{}
		}
		return res.rows[name]
	}
	timed, err := newReplayState(filepath.Join(dir, "timed"), model, in)
	if err != nil {
		return nil, err
	}
	defer timed.close()
	tr := &tracer{t0: time.Now()}
	runtime.GC()
	cpu0 := cpuTime()
	for i, o := range ops {
		root := tr.begin("request."+o.kind, -1, i)
		for _, s := range timed.serveSteps(o) {
			id := tr.begin(s.row, root, i)
			err := s.fn()
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay %s #%d: %s: %w", o.kind, i, s.row, err)
			}
			d := tr.spans[id].End - tr.spans[id].Start
			r := row(s.row)
			r.calls++
			r.ns += d
			res.serveNS += d
		}
		tr.end(root)
	}
	res.cpuNS = (cpuTime() - cpu0).Nanoseconds()
	for i, o := range ops {
		for _, f := range analyzedFiles(o) {
			fid := tr.begin("file", -1, i)
			for _, s := range timed.fileSteps(f) {
				id := tr.begin(s.row, fid, i)
				err := s.fn()
				tr.end(id)
				if err == nil {
					r := row(s.row)
					r.calls++
					r.ns += tr.spans[id].End - tr.spans[id].Start
				}
			}
			tr.end(fid)
		}
	}
	res.spans = tr.spans

	fresh, err := newReplayState(filepath.Join(dir, "alloc"), model, in)
	if err != nil {
		return nil, err
	}
	defer fresh.close()
	var ms runtime.MemStats
	alloc := func(s step) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if s.fn() != nil {
			return
		}
		runtime.ReadMemStats(&ms)
		r := row(s.row)
		r.allocs++
		r.allocKB += float64(ms.TotalAlloc-before) / 1024
	}
	for _, o := range ops {
		for _, s := range fresh.serveSteps(o) {
			alloc(s)
		}
		for _, f := range analyzedFiles(o) {
			for _, s := range fresh.fileSteps(f) {
				alloc(s)
			}
		}
	}
	return res, nil
}

// writeSpans dumps the replay's spans as JSON.
func writeSpans(path string, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
