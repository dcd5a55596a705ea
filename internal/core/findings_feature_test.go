package core

import (
	"context"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/featcache"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// wrappedFlowSrc hides the taint source behind a helper's return value, so
// intraprocedural sink counting sees nothing: with no summary for fetch,
// its result looks clean, and the strcpy in main never fires.
const wrappedFlowSrc = `
int fetch(void) {
	int p = recv(0);
	return p;
}
int main(void) {
	int buf = 0;
	int req = fetch();
	strcpy(buf, req);
	return 0;
}`

// cleanFlowSrc is the same shape with the source removed.
const cleanFlowSrc = `
int fetch(void) {
	return 7;
}
int main(void) {
	int buf = 0;
	int req = fetch();
	strcpy(buf, req);
	return 0;
}`

// TestInterprocFeatureMovesOnCrossFunctionFlow is the tentpole acceptance
// test: a flow the intraprocedural counter misses must still move the
// interprocedural and CWE-121 feature columns.
func TestInterprocFeatureMovesOnCrossFunctionFlow(t *testing.T) {
	// The intraprocedural counter genuinely misses this flow.
	if n := dataflow.CountTaintedSinks(ir.MustLowerSource(wrappedFlowSrc)); n != 0 {
		t.Fatalf("intraprocedural CountTaintedSinks = %d, want 0 (flow should require summaries)", n)
	}

	extract := func(src string) metrics.FeatureVector {
		tree := metrics.NewTree("flow", metrics.File{Path: "flow.mc", Content: src})
		fv, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return fv
	}
	vuln := extract(wrappedFlowSrc)
	clean := extract(cleanFlowSrc)

	if vuln[metrics.FeatTaintedSinks] != 0 {
		t.Fatalf("tainted_sinks = %v, want 0 (the flow must be invisible intraprocedurally)", vuln[metrics.FeatTaintedSinks])
	}
	for _, n := range []string{metrics.FeatInterTaintedSinks, metrics.FeatCWE121Findings, metrics.FeatTaintDepthMax} {
		if vuln[n] <= clean[n] {
			t.Errorf("feature %s: vulnerable %v <= clean %v, want strictly greater", n, vuln[n], clean[n])
		}
	}
}

// TestInterprocFeaturesDeterministicSCC: features over recursive and
// mutually-recursive call graphs are identical at any pool width and across
// repeated runs.
func TestInterprocFeaturesDeterministicSCC(t *testing.T) {
	tree := metrics.NewTree("scc",
		metrics.File{Path: "wrapped.mc", Content: wrappedFlowSrc},
		metrics.File{Path: "selfrec.mc", Content: `
int dig(int d, int n) {
	if (n > 0) {
		strcpy(d, n);
		dig(d, n - 1);
	}
	return n;
}
int main(void) {
	int buf = 0;
	int pkt = recv(0);
	dig(buf, pkt);
	return 0;
}`},
		metrics.File{Path: "mutual.mc", Content: `
int pong(int v);
int ping(int v) {
	if (v > 0) { return pong(v - 1); }
	system(v);
	return 0;
}
int pong(int v) {
	return ping(v);
}
int main(void) {
	int pkt = recv(0);
	ping(pkt);
	return 0;
}`},
	)
	base, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base[metrics.FeatInterTaintedSinks] == 0 {
		t.Fatal("SCC programs produced no interprocedural findings; test lost its subject")
	}
	for _, jobs := range []int{1, 8} {
		for run := 0; run < 3; run++ {
			fv, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range metrics.FeatureNames {
				if fv[n] != base[n] {
					t.Fatalf("jobs=%d run=%d: feature %s = %v, want %v", jobs, run, n, fv[n], base[n])
				}
			}
		}
	}
}

// TestDegradedFileZeroFillsInterprocFeatures: a file whose deep analysis
// panics contributes zeros to the new feature columns — deterministically
// across pool widths — and the degraded result is never cached.
func TestDegradedFileZeroFillsInterprocFeatures(t *testing.T) {
	tree := metrics.NewTree("degraded",
		metrics.File{Path: "vuln.mc", Content: wrappedFlowSrc})
	setHook(t, func(f metrics.File) { panic("injected analyzer bug") })

	cache, err := featcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	extract := func(jobs int) (metrics.FeatureVector, *AnalysisDiagnostics) {
		fv, diag, err := ExtractFeaturesDiagnostics(context.Background(), tree,
			ExtractConfig{Jobs: jobs, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return fv, diag
	}
	seq, _ := extract(1)
	par, diag := extract(8)
	for _, n := range []string{
		metrics.FeatInterTaintedSinks, metrics.FeatTaintDepthMax,
		metrics.FeatCWE121Findings, metrics.FeatCWE134Findings, metrics.FeatCWE78Findings,
	} {
		if seq[n] != 0 {
			t.Errorf("degraded file leaked into feature %s = %v, want 0", n, seq[n])
		}
		if seq[n] != par[n] {
			t.Errorf("degraded feature %s differs across pool widths: %v vs %v", n, seq[n], par[n])
		}
	}
	if diag.Files[0].Status != StatusPanic {
		t.Fatalf("status = %s, want %s", diag.Files[0].Status, StatusPanic)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("degraded result served from cache (%d hits)", hits)
	}

	// Once the analyzer bug is gone, the same cache re-analyzes the file and
	// the features reappear.
	SetFileTestHook(nil)
	fixed, diag := extract(1)
	if diag.Files[0].Status == StatusCacheHit {
		t.Fatal("degraded result was cached")
	}
	if fixed[metrics.FeatInterTaintedSinks] == 0 || fixed[metrics.FeatCWE121Findings] == 0 {
		t.Fatal("recovered run still missing interprocedural features")
	}
}
