package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/metrics"
)

// sessionSource builds deterministic MiniC-ish content that exercises the
// full pipeline: parseable functions (symexec, callgraph, interp), unsafe
// and format-string calls (findings, CWE counts), duplicated lines, magic
// numbers, and TODO markers.
func sessionSource(rng *rand.Rand) string {
	n := rng.Intn(1000)
	src := fmt.Sprintf(`
int limit_%d = %d;
int helper_%d(int x) {
	if (x > %d) { x = x - %d; }
	while (x > 2) { x = x / 2; }
	return x + %d;
}
int main() {
	int buf[%d];
	// TODO tighten bounds checking here
	strcpy(buf[0], read_input());
	printf(user_format_string);
	return helper_%d(%d);
}
`, n, 100+rng.Intn(900), n%7, rng.Intn(50), 1+rng.Intn(5), rng.Intn(9), 8+rng.Intn(24), n%7, rng.Intn(40))
	return src
}

// sessionFileAt draws a file in one of several shapes: MiniC, a file that
// fails to parse (parse-skip path), or a managed-language file.
func sessionFileAt(rng *rand.Rand, path string) metrics.File {
	t := metrics.NewTree("gen", metrics.File{Path: path, Content: sessionContent(rng, path)})
	return t.Files[0] // NewTree infers the language from the path
}

func sessionContent(rng *rand.Rand, path string) string {
	switch {
	case len(path) > 3 && path[len(path)-3:] == ".py":
		return fmt.Sprintf("def handler_%d(x):\n    # TODO port this\n    return x * %d\n", rng.Intn(10), rng.Intn(9))
	case rng.Intn(5) == 0:
		return fmt.Sprintf("int broken_%d( { this does not parse %d\n", rng.Intn(10), rng.Intn(99))
	default:
		return sessionSource(rng)
	}
}

func assertSameFV(t *testing.T, label string, got, want metrics.FeatureVector) {
	t.Helper()
	g, w := got.Slice(), want.Slice()
	for i, name := range metrics.FeatureNames {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: feature %s: session %v != full extraction %v", label, name, g[i], w[i])
		}
	}
}

// TestSessionRandomChangesetParity is the byte-parity contract: after every
// changeset in a random add/modify/remove sequence, session features are
// bit-identical to a fresh full extraction of the final tree — at one
// worker and at eight.
func TestSessionRandomChangesetParity(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0xc0ffee + int64(jobs)))
			sess := NewSession("prop", ExtractConfig{Jobs: jobs})
			ctx := context.Background()

			var seed []metrics.File
			for i := 0; i < 6; i++ {
				seed = append(seed, sessionFileAt(rng, fmt.Sprintf("src/f%02d.mc", i)))
			}
			if _, err := sess.Apply(ctx, Changeset{Added: seed}); err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 8; step++ {
				var cs Changeset
				paths := sess.Tree()
				switch {
				case step%3 == 0 || len(paths.Files) < 3: // add a couple
					for j := 0; j < 1+rng.Intn(2); j++ {
						ext := ".mc"
						if rng.Intn(3) == 0 {
							ext = ".py"
						}
						cs.Added = append(cs.Added, sessionFileAt(rng, fmt.Sprintf("src/n%02d_%d%s", step, j, ext)))
					}
					if len(paths.Files) > 2 {
						p := paths.Files[rng.Intn(len(paths.Files))].Path
						cs.Modified = append(cs.Modified, sessionFileAt(rng, p))
					}
				case step%3 == 1: // modify
					p := paths.Files[rng.Intn(len(paths.Files))].Path
					cs.Modified = append(cs.Modified, sessionFileAt(rng, p))
				default: // remove one, modify another
					i := rng.Intn(len(paths.Files))
					cs.Removed = append(cs.Removed, paths.Files[i].Path)
					j := (i + 1) % len(paths.Files)
					cs.Modified = append(cs.Modified, sessionFileAt(rng, paths.Files[j].Path))
				}
				res, err := sess.Apply(ctx, cs)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				full, _, err := ExtractFeaturesDiagnostics(ctx, sess.Tree(), ExtractConfig{Jobs: jobs})
				if err != nil {
					t.Fatal(err)
				}
				assertSameFV(t, fmt.Sprintf("step %d", step), res.Features, full)
				if res.Files != len(sess.Tree().Files) {
					t.Fatalf("step %d: Files = %d, want %d", step, res.Files, len(sess.Tree().Files))
				}
				if res.Seq != uint64(step+2) {
					t.Fatalf("step %d: Seq = %d, want %d", step, res.Seq, step+2)
				}
			}
		})
	}
}

// TestSessionParityWithSharedCache runs a session against a shared cache
// and checks both parity (cached enrichments are byte-stable) and that a
// re-added identical file is served from the cache.
func TestSessionParityWithSharedCache(t *testing.T) {
	cache := featcache.NewMemory()
	sess := NewSession("cached", ExtractConfig{Jobs: 2, Cache: cache})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	f1 := sessionFileAt(rng, "a.mc")
	f2 := sessionFileAt(rng, "b.mc")
	if _, err := sess.Apply(ctx, Changeset{Added: []metrics.File{f1, f2}}); err != nil {
		t.Fatal(err)
	}
	// Re-adding identical content under a new path must hit the cache.
	f3 := metrics.File{Path: "c.mc", Language: f1.Language, Content: f1.Content}
	res, err := sess.Apply(ctx, Changeset{Added: []metrics.File{f3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.CacheHits != 1 || res.Diagnostics.CacheMisses != 0 {
		t.Fatalf("expected pure cache hit for duplicate content, got hits=%d misses=%d",
			res.Diagnostics.CacheHits, res.Diagnostics.CacheMisses)
	}
	full, _, err := ExtractFeaturesDiagnostics(ctx, sess.Tree(), ExtractConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFV(t, "cached", res.Features, full)
}

// TestSessionValidation covers the stale-state and shape errors, and that
// every rejected changeset leaves the session untouched.
func TestSessionValidation(t *testing.T) {
	sess := NewSession("val", ExtractConfig{Jobs: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	f := sessionFileAt(rng, "a.mc")
	g := sessionFileAt(rng, "b.mc")

	// Incremental pushes against a fresh session are stale, not fatal.
	if _, err := sess.Apply(ctx, Changeset{Modified: []metrics.File{f}}); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("modify on fresh session: got %v, want ErrStaleSession", err)
	}
	if _, err := sess.Apply(ctx, Changeset{Added: []metrics.File{f, g}}); err != nil {
		t.Fatal(err)
	}
	before := sess.Features()
	seq := sess.Seq()

	cases := []struct {
		name string
		cs   Changeset
		want error
	}{
		{"add existing", Changeset{Added: []metrics.File{f}}, ErrStaleSession},
		{"modify missing", Changeset{Modified: []metrics.File{sessionFileAt(rng, "nope.mc")}}, ErrStaleSession},
		{"remove missing", Changeset{Removed: []string{"nope.mc"}}, ErrStaleSession},
		{"would empty", Changeset{Removed: []string{"a.mc", "b.mc"}}, ErrSessionEmpty},
		{"empty changeset", Changeset{}, nil},
		{"duplicate path", Changeset{Modified: []metrics.File{f}, Removed: []string{"a.mc"}}, nil},
		{"empty path", Changeset{Removed: []string{""}}, nil},
	}
	for _, tc := range cases {
		_, err := sess.Apply(ctx, tc.cs)
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if sess.Seq() != seq {
		t.Fatal("rejected changesets must not advance seq")
	}
	assertSameFV(t, "after rejections", sess.Features(), before)
}

// TestSessionCancelLeavesStateIntact checks that a canceled Apply is a
// no-op: the session keeps serving its previous state and a subsequent
// good changeset still satisfies parity.
func TestSessionCancelLeavesStateIntact(t *testing.T) {
	sess := NewSession("cancel", ExtractConfig{Jobs: 2})
	rng := rand.New(rand.NewSource(11))
	seed := []metrics.File{sessionFileAt(rng, "a.mc"), sessionFileAt(rng, "b.mc")}
	if _, err := sess.Apply(context.Background(), Changeset{Added: seed}); err != nil {
		t.Fatal(err)
	}
	before := sess.Features()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Apply(canceled, Changeset{Modified: []metrics.File{sessionFileAt(rng, "a.mc")}}); err == nil {
		t.Fatal("expected cancellation error")
	}
	if sess.Seq() != 1 || sess.Len() != 2 {
		t.Fatalf("canceled apply mutated state: seq=%d len=%d", sess.Seq(), sess.Len())
	}
	assertSameFV(t, "after cancel", sess.Features(), before)

	res, err := sess.Apply(context.Background(), Changeset{Modified: []metrics.File{sessionFileAt(rng, "b.mc")}})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := ExtractFeaturesDiagnostics(context.Background(), sess.Tree(), ExtractConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameFV(t, "post-cancel apply", res.Features, full)
}

// TestCancelDuringOnlyFile cancels the context while the only file of a
// run is inside its pass — the single-worker path every one-file delta
// takes. With or without a per-file deadline, Extract and Apply must return
// ctx's error, and Apply must leave the session's seq and features as they
// were, never commit the half-canceled changeset.
func TestCancelDuringOnlyFile(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seed := sessionFileAt(rng, "a.mc")
	edit := sessionFileAt(rng, "a.mc")
	for _, timeout := range []time.Duration{0, time.Minute} {
		cfg := ExtractConfig{Jobs: 4, FileTimeout: timeout}
		sess := NewSession("cancel-one", cfg)
		if _, err := sess.Apply(context.Background(), Changeset{Added: []metrics.File{seed}}); err != nil {
			t.Fatal(err)
		}
		before := sess.Features()

		ctx, cancel := context.WithCancel(context.Background())
		restore := SetFileTestHook(func(metrics.File) { cancel() })
		_, applyErr := sess.Apply(ctx, Changeset{Modified: []metrics.File{edit}})
		restore()
		if !errors.Is(applyErr, context.Canceled) {
			t.Fatalf("timeout=%v: Apply err = %v, want context.Canceled", timeout, applyErr)
		}
		if sess.Seq() != 1 {
			t.Fatalf("timeout=%v: canceled Apply committed: seq=%d", timeout, sess.Seq())
		}
		assertSameFV(t, "after cancel", sess.Features(), before)

		ctx, cancel = context.WithCancel(context.Background())
		restore = SetFileTestHook(func(metrics.File) { cancel() })
		_, extractErr := Extract(ctx, metrics.NewTree("one", edit), cfg, Pass{Features: true, Findings: true})
		restore()
		if !errors.Is(extractErr, context.Canceled) {
			t.Fatalf("timeout=%v: Extract err = %v, want context.Canceled", timeout, extractErr)
		}
	}
}

// TestConcurrentCacheAttribution is the regression test for the
// cache-traffic attribution bug: diagnostics used to be computed as deltas
// over the cache's process-global counters, so two concurrent extractions
// sharing one cache attributed each other's traffic. Run A (4 warmed files
// + 1 fresh file stalled by the test hook) overlaps run B (4 fresh files)
// entirely; with per-run counters A must report exactly its own 4 hits and
// 1 miss, and B its own 4 misses.
func TestConcurrentCacheAttribution(t *testing.T) {
	cache := featcache.NewMemory()
	ctx := context.Background()

	warm := make([]metrics.File, 4)
	for i := range warm {
		warm[i] = metrics.File{
			Path:    fmt.Sprintf("a%d.mc", i),
			Content: fmt.Sprintf("int warm_%d(int x) { if (x > %d) { x = 0; } return x; }\n", i, i),
		}
	}
	warmTree := metrics.NewTree("warm", warm...)
	if _, _, err := ExtractFeaturesDiagnostics(ctx, warmTree, ExtractConfig{Cache: cache, Jobs: 2}); err != nil {
		t.Fatal(err)
	}

	stall := metrics.File{Path: "zz_stall.mc", Content: "int stall_fn(int x) { return x + 41; }\n"}
	treeA := metrics.NewTree("A", append(append([]metrics.File{}, warm...), stall)...)
	var b []metrics.File
	for i := range warm {
		b = append(b, metrics.File{
			Path:    fmt.Sprintf("b%d.mc", i),
			Content: fmt.Sprintf("int cold_%d(int x) { while (x > %d) { x = x - 1; } return x; }\n", i, i),
		})
	}
	treeB := metrics.NewTree("B", b...)

	release := make(chan struct{})
	defer SetFileTestHook(func(f metrics.File) {
		if f.Path == "zz_stall.mc" {
			<-release
		}
	})()

	var wg sync.WaitGroup
	var diagA *AnalysisDiagnostics
	var errA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, diagA, errA = ExtractFeaturesDiagnostics(ctx, treeA, ExtractConfig{Cache: cache, Jobs: 2})
	}()

	// B starts and finishes entirely inside A's window: A cannot complete
	// until release is closed, which happens only after B returns.
	_, diagB, err := ExtractFeaturesDiagnostics(ctx, treeB, ExtractConfig{Cache: cache, Jobs: 2})
	close(release)
	wg.Wait()
	if err != nil || errA != nil {
		t.Fatalf("extractions failed: %v / %v", err, errA)
	}

	if diagA.CacheHits != 4 || diagA.CacheMisses != 1 {
		t.Fatalf("run A attribution wrong: hits=%d misses=%d, want 4/1 (global-delta accounting leaks concurrent traffic)",
			diagA.CacheHits, diagA.CacheMisses)
	}
	if diagB.CacheHits != 0 || diagB.CacheMisses != 4 {
		t.Fatalf("run B attribution wrong: hits=%d misses=%d, want 0/4", diagB.CacheHits, diagB.CacheMisses)
	}
}
