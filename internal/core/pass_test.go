package core

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfgana"
	"repro/internal/core/unit"
	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/langgen"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// passTrees are the inputs the per-file pass tests share: the vulnapp
// example and a small generated MiniC tree (small so that fuzz mutations
// of its files stay cheap to analyze).
func passTrees(t testing.TB) []*metrics.Tree {
	t.Helper()
	var trees []*metrics.Tree
	vuln, err := metrics.LoadTree(filepath.Join("..", "..", "examples", "vulnapp"))
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, vuln)
	spec := langgen.DefaultSpec()
	spec.Files, spec.FuncsPerFile, spec.StmtsPerFunc = 2, 3, 6
	return append(trees, langgen.Generate(spec))
}

// TestPassDoesNotMutateSharedIR: every analysis the pass runs over one
// unit — lint, findings, the feature analyses and funcrank's per-function
// CFG facts — treats the shared lowered program as read-only, so the IR
// after the pass is deeply equal to a fresh lowering.
func TestPassDoesNotMutateSharedIR(t *testing.T) {
	for _, tree := range passTrees(t) {
		for _, f := range tree.Files {
			var shared *unit.Unit
			p := Pass{Features: true, Findings: true, Funcs: func(u *unit.Unit) any {
				shared = u
				if u.IR != nil {
					for _, fn := range u.IR.Funcs {
						cfgana.Analyze(fn)
					}
				}
				return nil
			}}
			// Compare once the whole pass, feature analyses included, ran.
			if ff := runPass(f, p, nil); ff.Status.Degraded() {
				t.Fatalf("%s: %s", f.Path, ff.Detail)
			}
			fresh := unit.Load(f)
			if !reflect.DeepEqual(shared.IR, fresh.IR) || !reflect.DeepEqual(shared.AST, fresh.AST) {
				t.Fatalf("%s: the pass mutated the shared AST or IR", f.Path)
			}
		}
	}
}

// TestExtractionFindingsMatchCollect: the findings the feature pass keeps
// are byte-identical to findings.Collect, on a cold run, on a warm cache
// (the findings half runs alone) and through a flight.
func TestExtractionFindingsMatchCollect(t *testing.T) {
	cache := featcache.NewMemory()
	for _, tree := range passTrees(t) {
		want := canonJSON(t, findings.Collect(tree))
		fv, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []ExtractConfig{
			{Jobs: 1},
			{Jobs: 4, Cache: cache},
			{Jobs: 4, Cache: cache}, // warm: every file is a cache hit
			{Jobs: 2, Flight: NewExtractFlight()},
		} {
			e, err := Extract(context.Background(), tree, cfg, Pass{Features: true, Findings: true})
			if err != nil {
				t.Fatal(err)
			}
			rep, complete := e.Findings()
			if !complete {
				t.Fatalf("%s: clean run reported incomplete findings", tree.Name)
			}
			if got := canonJSON(t, rep); got != want {
				t.Fatalf("%s: pass findings differ from findings.Collect", tree.Name)
			}
			if canonJSON(t, e.Features) != canonJSON(t, fv) {
				t.Fatalf("%s: keeping findings changed the features", tree.Name)
			}
		}
	}
}

// TestDegradedFileLosesLintAndFindings pins the boundary semantics: a file
// whose pass panics contributes no lint warnings and no findings, and the
// extraction says its findings are incomplete.
func TestDegradedFileLosesLintAndFindings(t *testing.T) {
	tree := passTrees(t)[0]
	setHook(t, func(metrics.File) { panic("injected analyzer bug") })
	e, err := Extract(context.Background(), tree, ExtractConfig{}, Pass{Features: true, Findings: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Features[metrics.FeatLintWarnings]; got != 0 {
		t.Fatalf("degraded file contributed %v lint warnings, want 0", got)
	}
	rep, complete := e.Findings()
	if complete || rep.Total() != 0 {
		t.Fatalf("degraded findings: complete=%v total=%d, want incomplete and empty", complete, rep.Total())
	}
}

// TestCachedFileNamesLostFindings: a file whose features come from the
// cache runs only the findings half of the pass. When that half degrades,
// the features stay whole (status cache-hit) but the file's diagnostic
// names the lost findings, so an incomplete report is traceable to it.
func TestCachedFileNamesLostFindings(t *testing.T) {
	tree := passTrees(t)[0]
	cfg := ExtractConfig{Jobs: 2, Cache: featcache.NewMemory()}
	cold, err := Extract(context.Background(), tree, cfg, Pass{Features: true})
	if err != nil {
		t.Fatal(err)
	}
	setHook(t, func(metrics.File) { panic("injected findings bug") })
	warm, err := Extract(context.Background(), tree, cfg, Pass{Features: true, Findings: true})
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, warm.Features) != canonJSON(t, cold.Features) {
		t.Fatal("a degraded findings half changed the cached features")
	}
	for _, f := range warm.Diagnostics.Files {
		if f.Status != StatusCacheHit || !strings.HasPrefix(f.Detail, "findings panic-contained: ") {
			t.Fatalf("%s: status %q detail %q, want cache-hit naming the lost findings", f.Path, f.Status, f.Detail)
		}
	}
	if _, complete := warm.Findings(); complete {
		t.Fatal("lost findings reported complete")
	}
}

// passPaths are the file names the fuzzer analyzes its input under, one per
// language family the pass treats differently.
var passPaths = []string{"fuzz.mc", "fuzz.c", "fuzz.py", "fuzz.java"}

// FuzzAnalyzeFile drives arbitrary file bytes through the per-file pass
// and checks its contracts: no panic escapes the boundary, the features
// and diagnostics are identical at one and four workers, an incremental
// session agrees with the batch extraction, and a file that completed
// carries exactly lint.CheckFile's warning count.
func FuzzAnalyzeFile(f *testing.F) {
	for _, tree := range passTrees(f) {
		for _, file := range tree.Files {
			f.Add(file.Content, uint8(0))
		}
	}
	// Small bystanders give the pool more than one file to schedule
	// without drowning the fuzzed file's cost.
	bystanders := []metrics.File{
		{Path: "a.mc", Content: wrappedFlowSrc},
		{Path: "b.mc", Content: cleanFlowSrc},
		{Path: "c.py", Content: "import os\nos.system(input())\n"},
	}
	f.Add("int main( { this does not parse", uint8(1))
	f.Add("def f(x):\n    return x\n", uint8(2))
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		file := metrics.File{Path: passPaths[int(pick)%len(passPaths)], Content: src}
		one := metrics.NewTree("one", file)
		fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), one, ExtractConfig{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := diag.Files[0].Status; st == StatusOK || st == StatusParseSkip {
			if want := float64(lint.CheckFile(one.Files[0]).Total()); fv[metrics.FeatLintWarnings] != want {
				t.Fatalf("lint_warnings = %v, lint.CheckFile = %v", fv[metrics.FeatLintWarnings], want)
			}
		}

		mixed := metrics.NewTree("mixed", append([]metrics.File{file}, bystanders...)...)
		fv1, diag1, err := ExtractFeaturesDiagnostics(context.Background(), mixed, ExtractConfig{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		fv4, diag4, err := ExtractFeaturesDiagnostics(context.Background(), mixed, ExtractConfig{Jobs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if canonJSON(t, fv1) != canonJSON(t, fv4) || canonJSON(t, diag1) != canonJSON(t, diag4) {
			t.Fatal("features or diagnostics differ between -jobs 1 and -jobs 4")
		}

		sess := NewSession("fuzz", ExtractConfig{Jobs: 2})
		res, err := sess.Apply(context.Background(), Changeset{Added: one.Files})
		if err != nil {
			t.Fatal(err)
		}
		if canonJSON(t, res.Features) != canonJSON(t, fv) {
			t.Fatal("Session.Apply differs from batch extraction")
		}
	})
}

// TestLintSpanUnderFileSubtree: lint runs inside each file's pass, so its
// span sits under extract > file > deep, never directly under extract.
func TestLintSpanUnderFileSubtree(t *testing.T) {
	tr := trace.New("analyze")
	ctx := trace.ContextWithSpan(context.Background(), tr.Root())
	if _, err := ExtractFeaturesWith(ctx, passTrees(t)[0], ExtractConfig{}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	s := "\n" + tr.StructureString()
	if strings.Contains(s, "\n    lint\n") || !strings.Contains(s, "\n        lint\n") {
		t.Fatalf("lint span is not inside a file's deep subtree:\n%s", s)
	}
}
