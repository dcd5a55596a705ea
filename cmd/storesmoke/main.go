// Command storesmoke is verify.sh's findings-log crash drill. It appends
// findings runs until the log passes -crash bytes, cuts the file to
// exactly -crash bytes — what a kill in the middle of that append leaves —
// and drops the handle without closing it. It then reopens and asserts
// that every acknowledged run survived intact, that nothing
// unacknowledged leaked in, that the index-planned query path returns
// byte-identical results to the forced full scan over the recovered data,
// and that a run appended after recovery survives another reopen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cwe"
	"repro/internal/findings"
	"repro/internal/stats"
	"repro/internal/store/findex"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("storesmoke: ")
	dir := flag.String("dir", "", "working directory (empty = fresh temp dir, removed on exit)")
	runs := flag.Int("runs", 400, "runs to attempt before the simulated crash stops the writer")
	crash := flag.Int64("crash", 128<<10, "log length at which the simulated crash cuts the file (0 = run to completion)")
	seed := flag.Uint64("seed", 0xc0ffee, "deterministic run-content seed")
	flag.Parse()
	if err := run(*dir, *runs, *crash, *seed); err != nil {
		log.Fatal(err)
	}
}

// synthRun builds one deterministic findings run.
func synthRun(rng *stats.RNG, i int) findex.Run {
	repos := []string{"app-a", "app-b", "app-c"}
	files := []string{"src/a.c", "src/b.c", "lib/c.c"}
	cwes := []int{0, 78, 119, 121, 134, 676}
	rep := &findings.Report{}
	for j, nf := 0, rng.Intn(5); j < nf; j++ {
		rep.Findings = append(rep.Findings, findings.Finding{
			Rule:     "smoke",
			CWE:      cwe.ID(cwes[rng.Intn(len(cwes))]),
			File:     files[rng.Intn(len(files))],
			Line:     j + 1,
			Severity: findings.Severity(rng.Intn(5)),
			Message:  "smoke",
		})
	}
	r := findex.NewRun(repos[i%len(repos)], "smoke", rep)
	r.Time = int64(1_700_000_000 + i*60)
	if rng.Bool(0.7) {
		r = r.WithScore(rng.Float64())
	}
	return r
}

func run(dir string, runs int, crash int64, seed uint64) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "storesmoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "findings.db")

	hist, err := findex.Open(path)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed)

	type acked struct {
		repo  string
		seq   uint64
		total int
	}
	var acks []acked
	crashed := false
	for i := 0; i < runs; i++ {
		r := synthRun(rng, i)
		seq, err := hist.Append(r)
		if err != nil {
			return fmt.Errorf("append %d: %w", i, err)
		}
		if crash > 0 && hist.Stats().Bytes > crash {
			// The crash lands inside this append: the file keeps only its
			// first crash bytes and the run was never acknowledged.
			if err := os.Truncate(path, crash); err != nil {
				return err
			}
			crashed = true
			break
		}
		acks = append(acks, acked{r.Repo, seq, r.Total})
	}
	if crash > 0 && !crashed {
		return fmt.Errorf("the log never reached %d bytes across %d runs; raise -runs or lower -crash", crash, runs)
	}
	// hist is dropped without Close, as a killed process leaves it.

	reopened, err := findex.Open(path)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer reopened.Close() // idempotent after the explicit Close below

	for _, a := range acks {
		got, ok, err := reopened.Get(a.repo, a.seq)
		if err != nil {
			return fmt.Errorf("get %s/%d after recovery: %w", a.repo, a.seq, err)
		}
		if !ok {
			return fmt.Errorf("acknowledged run %s/%d lost by recovery", a.repo, a.seq)
		}
		if got.Total != a.total {
			return fmt.Errorf("run %s/%d corrupted: total %d, want %d", a.repo, a.seq, got.Total, a.total)
		}
	}
	all, _, err := reopened.QueryString("", findex.Options{})
	if err != nil {
		return fmt.Errorf("query after recovery: %w", err)
	}
	if len(all) != len(acks) {
		return fmt.Errorf("recovered %d runs, acknowledged %d: phantom or lost commits", len(all), len(acks))
	}

	queries := []string{
		"cwe121 > 0",
		"severity >= high ORDER BY score DESC LIMIT 20",
		`repo = "app-b" AND total > 0 ORDER BY time DESC`,
	}
	for _, q := range queries {
		planned, ex, err := reopened.QueryString(q, findex.Options{})
		if err != nil {
			return fmt.Errorf("query %q: %w", q, err)
		}
		full, _, err := reopened.QueryString(q, findex.Options{ForceFullScan: true})
		if err != nil {
			return fmt.Errorf("full scan %q: %w", q, err)
		}
		pj, _ := json.Marshal(planned)
		fj, _ := json.Marshal(full)
		if string(pj) != string(fj) {
			return fmt.Errorf("parity violation for %q after recovery:\n planned: %s\n full:    %s", q, pj, fj)
		}
		if ex.FullScan {
			return fmt.Errorf("query %q fell back to a full scan; expected an index", q)
		}
	}

	// The recovered log takes new appends that survive another reopen.
	extra := synthRun(rng, runs)
	seq, err := reopened.Append(extra)
	if err != nil {
		return fmt.Errorf("append after recovery: %w", err)
	}
	if err := reopened.Close(); err != nil {
		return err
	}
	again, err := findex.Open(path)
	if err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer again.Close()
	got, ok, err := again.Get(extra.Repo, seq)
	if err != nil || !ok || got.Total != extra.Total {
		return fmt.Errorf("run %s/%d appended after recovery lost by the second reopen (ok=%v err=%v)", extra.Repo, seq, ok, err)
	}
	all, _, err = again.QueryString("", findex.Options{})
	if err != nil {
		return err
	}
	if len(all) != len(acks)+1 {
		return fmt.Errorf("second reopen holds %d runs, want %d", len(all), len(acks)+1)
	}

	fmt.Printf("storesmoke: OK — %d acknowledged runs survived a crash cutting the log at %d bytes; index/full-scan parity holds; appends after recovery persist\n",
		len(acks), crash)
	return nil
}
