package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core/unit"
	"repro/internal/cwe"
	"repro/internal/dataflow"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/singleflight"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// This file is the per-file pass every consumer of per-file analysis runs
// (DESIGN.md §5e): one parse per file behind one panic boundary
// (passSafe), one per-file deadline (passBounded) and one worker pool.

// fileEnrichment is the cached per-file result of the pass. The exported
// fields make it a stable JSON record for the feature cache.
type fileEnrichment struct {
	TaintedSinks  int     `json:"tainted_sinks"`
	FeasiblePaths float64 `json:"feasible_paths"`
	MaxFanOut     int     `json:"max_fan_out"`
	MaxDepth      int     `json:"max_depth"`
	CovSum        float64 `json:"cov_sum"`
	CovRuns       int     `json:"cov_runs"`
	DynPaths      int     `json:"dyn_paths"`
	InterSinks    int     `json:"inter_sinks"`
	TaintMaxChain int     `json:"taint_max_chain"`
	CWE121        int     `json:"cwe121"`
	CWE134        int     `json:"cwe134"`
	CWE78         int     `json:"cwe78"`
	LintWarnings  int     `json:"lint_warnings"`
}

// AnalysisVersion identifies the per-file pass implementation baked into
// fileEnrichment. It is mixed into every feature-cache key; bump it
// whenever any analysis that feeds fileEnrichment changes behavior (see
// DESIGN.md's AnalysisVersion log). v3: the entry carries the lint count.
const AnalysisVersion = "enrich-v3"

// ExtractConfig tunes the testbed's extraction pipeline.
type ExtractConfig struct {
	// Jobs bounds the per-file worker pool; <= 0 uses every core.
	Jobs int
	// Cache, when non-nil, memoizes per-file enrichments keyed by content
	// hash, so only files whose bytes changed are re-analyzed.
	Cache *featcache.Cache
	// FileTimeout bounds one file's pass; <= 0 disables the bound. A file
	// that exceeds it degrades to base metrics only (zero enrichment and
	// lint count, no findings or function facts), with a StatusTimeout
	// diagnostic, and is never cached.
	FileTimeout time.Duration
	// Flight, when non-nil, coalesces identical in-flight feature passes
	// across concurrent extractions sharing the flight: when two requests
	// race the same cache miss (same analysis version, language, and
	// bytes), one runs the pass and the other adopts its enrichment with a
	// StatusCoalesced diagnostic. A flight only dedups concurrency — the
	// Cache still owns reuse over time — so it changes cost, never bytes.
	Flight *ExtractFlight
	// FileDone, when non-nil, receives each file's facts on the worker
	// goroutine that finished it, in completion order; i indexes
	// tree.Files. Files skipped by a canceled run are never reported.
	FileDone func(i int, f FileFacts)
}

// ExtractFlight is the shared in-flight dedup table for per-file feature
// passes, shared by every request and delta session of a daemon; the zero
// value is ready to use.
type ExtractFlight struct {
	g singleflight.Group[FileFacts]
}

// NewExtractFlight returns an empty flight.
func NewExtractFlight() *ExtractFlight { return &ExtractFlight{} }

// Coalesced counts per-file passes that were adopted from a concurrent
// leader instead of being run (the daemon's coalesced_total metric).
func (f *ExtractFlight) Coalesced() uint64 { return f.g.Shared() }

// Pass selects what the per-file pass derives for one request; lint runs
// whenever Features or Findings is set.
type Pass struct {
	// Features computes the tree's base metrics and each file's
	// enrichment — the only cached and coalesced part of the pass.
	Features bool
	// Findings keeps each file's CWE findings for the request. Files
	// whose enrichment came from the cache or a concurrent leader run
	// only the findings half of the pass.
	Findings bool
	// Funcs, when non-nil, derives per-function facts from each file's
	// unit inside the boundary; the result lands in FileFacts.Funcs.
	Funcs func(u *unit.Unit) any
}

// FileFacts is one file's outcome of the per-file pass: what it derived and
// how it ended. A flight leader hands its FileFacts to its followers, so a
// degraded result is shared as degraded.
type FileFacts struct {
	FileDiagnostic
	// Findings is sorted by (line, rule, message); set for Pass.Findings.
	Findings []findings.Finding
	// Funcs is Pass.Funcs' result; nil when the file degraded.
	Funcs any

	enr fileEnrichment
	// findingsLost marks a file whose findings pass degraded.
	findingsLost bool
}

// Extraction is one request's result of the per-file pass over a tree.
type Extraction struct {
	// Features is the tree's feature vector; nil unless Pass.Features.
	Features    metrics.FeatureVector
	Diagnostics *AnalysisDiagnostics
	// Files holds every file's facts in tree order.
	Files []FileFacts
}

// Findings merges the per-file findings into the tree report, in
// findings.Collect's order. complete is false when some file's findings
// were lost to a timeout or a contained panic; those files contribute
// nothing.
func (e *Extraction) Findings() (rep *findings.Report, complete bool) {
	var all []findings.Finding
	complete = true
	for _, f := range e.Files {
		all = append(all, f.Findings...)
		complete = complete && !f.findingsLost
	}
	return findings.Merge(all), complete
}

// ExtractFeatures runs the full static-analysis testbed over a source tree:
// the base extractors plus each file's enrichment (lint warnings, taint
// findings, symbolic-execution path counts, call-graph shape, and sampled
// dynamic traces).
func ExtractFeatures(tree *metrics.Tree) metrics.FeatureVector {
	fv, _ := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{})
	return fv
}

// ExtractFeaturesWith is ExtractFeatures with cancellation, an explicit
// pool bound, an optional per-file deadline, and an optional
// content-addressed cache. The aggregation is order-independent (sums and
// maxes), so the result is identical for any Jobs value. The only error is
// ctx's, when the run is canceled mid-pool.
func ExtractFeaturesWith(ctx context.Context, tree *metrics.Tree, cfg ExtractConfig) (metrics.FeatureVector, error) {
	fv, _, err := ExtractFeaturesDiagnostics(ctx, tree, cfg)
	return fv, err
}

// ExtractFeaturesDiagnostics is ExtractFeaturesWith plus every file's
// status (ok / parse-skip / cache-hit / timeout / panic-contained) in tree
// order and the run's feature-cache traffic: a panicking or runaway
// analysis costs one file's enrichment, never the process, and the loss is
// recorded rather than silent.
func ExtractFeaturesDiagnostics(ctx context.Context, tree *metrics.Tree, cfg ExtractConfig) (metrics.FeatureVector, *AnalysisDiagnostics, error) {
	e, err := Extract(ctx, tree, cfg, Pass{Features: true})
	if err != nil {
		return nil, nil, err
	}
	return e.Features, e.Diagnostics, nil
}

// Extract runs the per-file pass over every file of the tree on cfg's
// worker pool and folds the results. The only error is ctx's, when the run
// is canceled mid-pool.
func Extract(ctx context.Context, tree *metrics.Tree, cfg ExtractConfig, p Pass) (*Extraction, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// With no span in ctx every trace call is a nil no-op. Base takes
	// Child seq 0 and the file spans ChildAt past it, so the span tree is
	// deterministic at any pool width.
	ext := trace.SpanFromContext(ctx).Child("extract")
	defer ext.End()
	var fv metrics.FeatureVector
	if p.Features {
		bs := ext.Child("base")
		fv = metrics.Extract(tree)
		bs.End()
	}

	files, diag, err := cfg.runFiles(ctx, tree.Files, p, ext, 1)
	if err != nil {
		return nil, err
	}
	if p.Features {
		setEnrichmentFeatures(fv, aggregateEnrichments(len(files), func(i int) fileEnrichment { return files[i].enr }))
	}
	return &Extraction{Features: fv, Diagnostics: diag, Files: files}, nil
}

// runFiles runs the pass over files on cfg's worker pool, file i under a
// span at seq base+i of parent, and returns every file's facts with the
// run's diagnostics. The batch extractor and the incremental session share
// it. The only error is ctx's.
func (cfg ExtractConfig) runFiles(ctx context.Context, files []metrics.File, p Pass, parent *trace.Span, base int) ([]FileFacts, *AnalysisDiagnostics, error) {
	// Cache traffic is counted per run, not as a delta over the cache's
	// process-global counters, which concurrent runs share.
	var ct cacheTraffic
	facts := make([]FileFacts, len(files))
	err := ml.ParallelForCtx(ctx, len(files), cfg.Jobs, func(i int) error {
		facts[i] = cfg.analyzeFile(ctx, files[i], p, &ct, parent, base+i)
		if cfg.FileDone != nil {
			cfg.FileDone(i, facts[i])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	diag := &AnalysisDiagnostics{Files: make([]FileDiagnostic, len(facts))}
	for i, f := range facts {
		diag.Files[i] = f.FileDiagnostic
	}
	diag.CacheHits, diag.CacheMisses, diag.Coalesced = ct.hits.Load(), ct.misses.Load(), ct.coalesced.Load()
	return facts, diag, nil
}

// cacheTraffic counts one run's feature-cache hits, misses and coalesced
// misses.
type cacheTraffic struct {
	hits, misses, coalesced atomic.Uint64
}

// aggregateEnrichments folds n per-file enrichments, enr(0) through
// enr(n-1) in that order, into the tree-level aggregate of sums and maxes.
// The float sums (FeasiblePaths, CovSum) are not associative under
// reordering, so callers needing byte parity with a batch extraction fold
// in tree (path-sorted) order; the incremental session re-folds with this
// same function.
func aggregateEnrichments(n int, enr func(i int) fileEnrichment) fileEnrichment {
	var agg fileEnrichment
	for i := range n {
		r := enr(i)
		agg.TaintedSinks += r.TaintedSinks
		agg.FeasiblePaths += r.FeasiblePaths
		agg.MaxFanOut = max(agg.MaxFanOut, r.MaxFanOut)
		agg.MaxDepth = max(agg.MaxDepth, r.MaxDepth)
		agg.CovSum += r.CovSum
		agg.CovRuns += r.CovRuns
		agg.DynPaths += r.DynPaths
		agg.InterSinks += r.InterSinks
		agg.TaintMaxChain = max(agg.TaintMaxChain, r.TaintMaxChain)
		agg.CWE121 += r.CWE121
		agg.CWE134 += r.CWE134
		agg.CWE78 += r.CWE78
		agg.LintWarnings += r.LintWarnings
	}
	return agg
}

// setEnrichmentFeatures writes the aggregated per-file values into the
// feature vector — the one place the enrichment-to-feature mapping lives,
// shared by the batch extractor and the incremental session.
func setEnrichmentFeatures(fv metrics.FeatureVector, agg fileEnrichment) {
	fv[metrics.FeatLintWarnings] = float64(agg.LintWarnings)
	fv[metrics.FeatTaintedSinks] = float64(agg.TaintedSinks)
	fv[metrics.FeatFeasiblePaths] = math.Log10(1 + agg.FeasiblePaths)
	fv[metrics.FeatCallFanOut] = float64(agg.MaxFanOut)
	fv[metrics.FeatCallDepth] = float64(agg.MaxDepth)
	fv[metrics.FeatDynBranchCov] = 0
	if agg.CovRuns > 0 {
		fv[metrics.FeatDynBranchCov] = agg.CovSum / float64(agg.CovRuns)
	}
	fv[metrics.FeatDynUniquePaths] = math.Log10(1 + float64(agg.DynPaths))
	fv[metrics.FeatInterTaintedSinks] = float64(agg.InterSinks)
	fv[metrics.FeatTaintDepthMax] = float64(agg.TaintMaxChain)
	fv[metrics.FeatCWE121Findings] = float64(agg.CWE121)
	fv[metrics.FeatCWE134Findings] = float64(agg.CWE134)
	fv[metrics.FeatCWE78Findings] = float64(agg.CWE78)
}

// analyzeFile runs the per-file pass for one file under its own file span
// (seq under parent). A feature pass goes through the cache and the
// flight; when one of them answered and the request also wants findings,
// the findings half of the pass runs on its own. If that half degrades,
// the file keeps its cache-hit or coalesced status (its features are
// whole) and its Detail names the lost findings.
func (cfg ExtractConfig) analyzeFile(ctx context.Context, f metrics.File, p Pass, ct *cacheTraffic, parent *trace.Span, seq int) FileFacts {
	if f.Language == lang.Unknown {
		f.Language = lang.FromPath(f.Path)
	}
	fs := parent.ChildAt(seq, trace.SpanNameFile)
	fs.SetLabel(f.Path)
	fs.Add("bytes", int64(len(f.Content)))
	defer fs.End()

	ff := cfg.passCached(ctx, f, p, ct, fs)
	ff.Path = f.Path
	if p.Findings {
		half := ff
		if ff.Status == StatusCacheHit || ff.Status == StatusCoalesced {
			half = passBounded(ctx, f, Pass{Findings: true}, cfg.FileTimeout, fs)
			if half.Status.Degraded() {
				ff.Detail = fmt.Sprintf("findings %s: %s", half.Status, half.Detail)
			}
		}
		ff.Findings, ff.findingsLost = half.Findings, half.Status.Degraded()
	}
	return ff
}

// passCached runs a feature pass through the cache and the flight. The
// key covers the complete input of the pass (analysis version, language,
// bytes), so a hit is always safe to reuse. Only completed passes (ok or
// parse-skip) are written back: a cached degradation would outlive the
// timeout or analyzer bug that caused it.
//
// With a Flight, concurrent misses on one key coalesce: the leader runs
// the pass and writes the cache, the rest adopt its enrichment. The
// leader runs under a cancel-free context — the pass is non-preemptible
// work bounded by FileTimeout, and finishing it lets the result reach the
// cache and every follower even when the leader's own request is gone.
func (cfg ExtractConfig) passCached(ctx context.Context, f metrics.File, p Pass, ct *cacheTraffic, fs *trace.Span) FileFacts {
	if !p.Features || cfg.Cache == nil && cfg.Flight == nil {
		return passBounded(ctx, f, p, cfg.FileTimeout, fs)
	}
	key := featcache.Key(AnalysisVersion, f.Language.String(), f.Content)
	if cfg.Cache != nil {
		cs := fs.Child("cache")
		var enr fileEnrichment
		hit := cfg.Cache.GetJSON(key, &enr)
		cs.End()
		if hit {
			ct.hits.Add(1)
			fs.Add("cache_hit", 1)
			return FileFacts{FileDiagnostic: FileDiagnostic{Status: StatusCacheHit}, enr: enr}
		}
		ct.misses.Add(1)
	}
	run := func(ctx context.Context) FileFacts {
		ff := passBounded(ctx, f, p, cfg.FileTimeout, fs)
		if cfg.Cache != nil && !ff.Status.Degraded() {
			// A failed write only costs a future re-analysis.
			_ = cfg.Cache.PutJSON(key, ff.enr)
		}
		return ff
	}
	if cfg.Flight == nil {
		return run(ctx)
	}
	ff, shared, err := cfg.Flight.g.Do(ctx, key, func() FileFacts { return run(context.WithoutCancel(ctx)) })
	if err != nil {
		// Follower canceled while waiting; the whole run is being torn
		// down and its output discarded, so only a non-ok status matters.
		return degradedFacts(StatusTimeout, err.Error())
	}
	if !shared || ff.Status.Degraded() {
		// An adopted degradation is still a degradation; reporting it as
		// coalesced would hide the zero enrichment from the diagnostics.
		return ff
	}
	ct.coalesced.Add(1)
	fs.Add("coalesced", 1)
	return FileFacts{FileDiagnostic: FileDiagnostic{Status: StatusCoalesced}, enr: ff.enr}
}

// passBounded applies the per-file deadline. The pass is not preemptible,
// so a timed-out pass runs on in its goroutine and its result is
// discarded; the file degrades immediately. Without a deadline the pass
// runs inline. The pass records into a detached "deep" span subtree,
// adopted into the file span (seq 1; the cache probe is seq 0) only when
// the result is accepted, so a runaway goroutine never races the trace
// exporter.
func passBounded(ctx context.Context, f metrics.File, p Pass, timeout time.Duration, fs *trace.Span) FileFacts {
	deep := fs.Detached("deep")
	if timeout <= 0 {
		ff := passSafe(f, p, deep)
		deep.End()
		fs.Adopt(deep, 1)
		return ff
	}
	ch := make(chan FileFacts, 1) // buffered: the late finisher must not leak forever
	go func() {
		ff := passSafe(f, p, deep)
		deep.End() // before the send: adoption must never race recording
		ch <- ff
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ff := <-ch:
		fs.Adopt(deep, 1)
		return ff
	case <-timer.C:
		return degradedFacts(StatusTimeout, fmt.Sprintf("deep analysis exceeded %v; degraded to base metrics", timeout))
	case <-ctx.Done():
		// The whole run is being canceled; the caller discards this
		// result, so the status only needs to be non-ok.
		return degradedFacts(StatusTimeout, ctx.Err().Error())
	}
}

// degradedFacts is the zero result of a pass that did not complete.
func degradedFacts(status FileStatus, detail string) FileFacts {
	return FileFacts{FileDiagnostic: FileDiagnostic{Status: status, Detail: detail}}
}

// fileTestHook holds the SetFileTestHook function, if any.
var fileTestHook atomic.Pointer[func(f metrics.File)]

// SetFileTestHook installs fn to run at the top of every per-file pass,
// inside the recover() boundary and under the file deadline, and returns a
// function restoring the previous hook. It exists so tests can inject
// panics and stalls into the pipeline without a pathological input file;
// production code never calls it.
func SetFileTestHook(fn func(f metrics.File)) (restore func()) {
	var h *func(metrics.File)
	if fn != nil {
		h = &fn
	}
	old := fileTestHook.Swap(h)
	return func() { fileTestHook.Store(old) }
}

// passSafe is the panic boundary of the pipeline: a bug anywhere in the
// per-file analyses degrades this file to a zero result with a StatusPanic
// diagnostic instead of killing the process. The same file panics the
// same way at any pool width, so containment keeps Extract deterministic.
func passSafe(f metrics.File, p Pass, sp *trace.Span) (ff FileFacts) {
	defer func() {
		if r := recover(); r != nil {
			ff = degradedFacts(StatusPanic, fmt.Sprintf("deep analysis panicked: %v", r))
		}
	}()
	if h := fileTestHook.Load(); h != nil {
		(*h)(f)
	}
	return runPass(f, p, sp)
}

// runPass is the per-file pass: one parse and lowering, then lint, the
// findings layer (interprocedural taint and abstract interpretation), any
// per-function facts and the feature analyses, all over that one unit. A
// C-family file that does not parse as MiniC reports parse-skip: it keeps
// the token-level lint findings but nothing deeper (real C rarely parses
// as MiniC; the token metrics already cover it).
func runPass(f metrics.File, p Pass, sp *trace.Span) FileFacts {
	ff := FileFacts{FileDiagnostic: FileDiagnostic{Status: StatusOK}}
	ps := sp.Child("parse")
	u := unit.Load(f)
	ps.End()
	if p.Features || p.Findings {
		ls := sp.Child("lint")
		lints := lint.CheckUnit(u)
		ls.End()
		fds := sp.Child("findings")
		fa := findings.Analyze(u, lints)
		fds.End()
		if p.Findings {
			ff.Findings = fa.Findings
		}
		ff.enr = fileEnrichment{LintWarnings: lints.Total(), InterSinks: fa.InterTaintSinks, TaintMaxChain: fa.TaintMaxChain}
		for _, fd := range fa.Findings {
			switch {
			case fd.CWE == 0:
			case cwe.IsA(fd.CWE, 121):
				ff.enr.CWE121++
			case cwe.IsA(fd.CWE, 134):
				ff.enr.CWE134++
			case cwe.IsA(fd.CWE, 78):
				ff.enr.CWE78++
			}
		}
	}
	if p.Funcs != nil {
		fs := sp.Child("funcs")
		ff.Funcs = p.Funcs(u)
		fs.End()
	}
	switch {
	case !u.CFamily():
	case u.IR == nil:
		ff.Status, ff.Detail = StatusParseSkip, u.Err.Error()
	case p.Features:
		deepEnrich(u, &ff.enr, sp)
	}
	return ff
}

// deepEnrich runs the feature-only analyses over a lowered unit:
// intraprocedural taint, symbolic execution, call-graph shape and sampled
// dynamic traces.
func deepEnrich(u *unit.Unit, enr *fileEnrichment, sp *trace.Span) {
	ts := sp.Child("taint")
	enr.TaintedSinks = dataflow.CountTaintedSinks(u.IR)
	ts.End()
	ss := sp.Child("symexec")
	cfg := symexec.DefaultConfig()
	for _, fn := range u.IR.Funcs {
		enr.FeasiblePaths += float64(symexec.Explore(fn, cfg).FeasiblePaths)
	}
	ss.End()
	cs := sp.Child("callgraph")
	cg := u.Graph()
	enr.MaxFanOut, enr.MaxDepth = cg.MaxFanOut(), cg.Depth()
	cs.End()
	is := sp.Child("interp")
	for _, root := range cg.Roots() {
		if prof, err := interp.ProfileFunc(u.IR, root, 24, 0xd1ce); err == nil {
			enr.CovSum += prof.BranchCoverage
			enr.CovRuns++
			enr.DynPaths += prof.UniquePaths
		}
	}
	is.End()
}
