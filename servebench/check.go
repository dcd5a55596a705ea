package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/funcrank"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// canon re-marshals JSON with sorted keys and untouched number text, so
// two encodings of the same value compare equal byte for byte.
func canon(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// sameJSON reports whether a response field equals the library's value.
func sameJSON(got json.RawMessage, want any) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	g, err := canon(got)
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	w, err := canon(wb)
	if err != nil {
		return err
	}
	if g != w {
		return fmt.Errorf("response differs from the library's answer %s", firstDiff(g, w))
	}
	return nil
}

// firstDiff shows where two encodings first differ.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("at byte %d:\n got …%.160s\nwant …%.160s", i, got[lo:], want[lo:])
}

// degraded returns an error when any file's analysis degraded.
func degraded(d *core.AnalysisDiagnostics) error {
	if d == nil {
		return nil
	}
	for _, f := range d.Files {
		if f.Status == core.StatusTimeout || f.Status == core.StatusPanic {
			return fmt.Errorf("file %s degraded: %s", f.Path, f.Status)
		}
	}
	return nil
}

// checker recomputes every answer with the library, outside timing.
type checker struct {
	model *secmetric.Model
	in    *inputs
	// errs holds one error per failed timed request (nil = correct).
	errs []error
	mu   sync.Mutex
	// global lists failures of whole-run checks (history parity, counts).
	global []error
}

func (c *checker) failGlobal(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.global = append(c.global, err)
}

func newChecker(model *secmetric.Model, in *inputs, replies []reply) *checker {
	c := &checker{model: model, in: in, errs: make([]error, len(in.ops))}
	for i, r := range replies {
		switch {
		case r.err != nil:
			c.errs[i] = r.err
		case r.status/100 != 2:
			c.errs[i] = fmt.Errorf("status %d: %.200s", r.status, r.body)
		}
	}
	return c
}

func (c *checker) failed() int {
	n := 0
	for _, e := range c.errs {
		if e != nil {
			n++
		}
	}
	return n
}

func (c *checker) fail(i int, err error) {
	if c.errs[i] == nil {
		c.errs[i] = fmt.Errorf("%s %s #%d: %w", c.in.ops[i].kind, c.in.ops[i].repo, i, err)
	}
}

// parallel runs fn(0..n-1) on two workers, the closed loop's width.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < closedLoopClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// scoreRef is the library's report for a tree.
func (c *checker) scoreRef(t *metrics.Tree) *secmetric.Report {
	return c.model.Score(t.Name, core.ExtractFeatures(t))
}

// checkScore holds one /v1/score body to the library's report.
func (c *checker) checkScore(body []byte, want *secmetric.Report) error {
	var got struct {
		Model       string                    `json:"model"`
		Report      json.RawMessage           `json:"report"`
		Diagnostics *core.AnalysisDiagnostics `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Model != modelName {
		return fmt.Errorf("model %q, want %q", got.Model, modelName)
	}
	if err := degraded(got.Diagnostics); err != nil {
		return err
	}
	return sameJSON(got.Report, want)
}

// checkRank holds one /v1/rank body to funcrank.Rank.
func checkRank(body []byte, t *metrics.Tree) error {
	var got struct {
		Ranking json.RawMessage `json:"ranking"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := funcrank.Rank(context.Background(), t, funcrank.Config{})
	if err != nil {
		return err
	}
	return sameJSON(got.Ranking, want)
}

// checkScoreCold compares every cold score with the library's answer.
func (c *checker) checkScoreCold(replies []reply) {
	parallel(len(c.in.ops), func(i int) {
		if c.errs[i] != nil {
			return
		}
		if err := c.checkScore(replies[i].body, c.scoreRef(c.in.ops[i].tree)); err != nil {
			c.fail(i, err)
		}
	})
}

// checkDelta replays each repo's edits through a library core.Session and
// compares every response (all but the server-side elapsed time).
func (c *checker) checkDelta(replies []reply) {
	repos := make([]string, 0, deltaRepos)
	for r := 0; r < deltaRepos; r++ {
		repos = append(repos, fmt.Sprintf("repo-%d", r))
	}
	parallel(len(repos), func(r int) {
		repo := repos[r]
		sess := core.NewSession(repo, core.ExtractConfig{})
		seed := c.in.repos[repo]
		if _, err := sess.Apply(context.Background(), core.Changeset{Added: append([]metrics.File(nil), seed.Files...)}); err != nil {
			c.failGlobal(fmt.Errorf("reference session %s: %w", repo, err))
			return
		}
		for i, o := range c.in.ops {
			if o.repo != repo {
				continue
			}
			res, err := sess.Apply(context.Background(), core.Changeset{Modified: []metrics.File{o.change}})
			if err != nil {
				c.fail(i, fmt.Errorf("reference apply: %w", err))
				continue
			}
			if c.errs[i] != nil {
				continue
			}
			subject := fmt.Sprintf("%s@%d", repo, res.Seq)
			want := map[string]any{
				"model":      modelName,
				"repo_id":    repo,
				"seq":        res.Seq,
				"files":      res.Files,
				"report":     c.model.Score(subject, res.Features),
				"comparison": c.model.Compare(fmt.Sprintf("%s@%d", repo, res.Seq-1), res.OldFeatures, subject, res.Features),
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(replies[i].body, &got); err != nil {
				c.fail(i, err)
				continue
			}
			var diag *core.AnalysisDiagnostics
			if raw := got["diagnostics"]; raw != nil {
				if err := json.Unmarshal(raw, &diag); err != nil {
					c.fail(i, err)
					continue
				}
			}
			if err := degraded(diag); err != nil {
				c.fail(i, err)
				continue
			}
			for k, v := range want {
				if err := sameJSON(got[k], v); err != nil {
					c.fail(i, fmt.Errorf("%s: %w", k, err))
					break
				}
			}
		}
	})
}

// checkFleet holds the routed fleet traffic to four references: each
// routed score and rank body is byte-identical to the home shard's answer
// to the same body sent directly; those answers equal the library's; each
// query answer is scoped to its repo; and on the final history the
// indexed and full-scan plans agree.
func (c *checker) checkFleet(cl *http.Client, d *daemon, replies []reply) {
	// History first: the direct requests below record runs too.
	for _, name := range sortedKeys(c.in.repos) {
		for _, q := range []string{queryOp(name).query, fmt.Sprintf("repo = %q", name)} {
			var runs [2]string
			for k, full := range []bool{false, true} {
				r := post(cl, d.front.URL+"/v1/query", encode(api.QueryRequest{Query: q, FullScan: full}))
				var got struct {
					Runs json.RawMessage `json:"runs"`
				}
				if !r.ok() || json.Unmarshal(r.body, &got) != nil {
					c.failGlobal(fmt.Errorf("final query %q: status %d %v", q, r.status, r.err))
					continue
				}
				runs[k], _ = canon(got.Runs)
			}
			if runs[0] != runs[1] {
				c.failGlobal(fmt.Errorf("final query %q: indexed and full-scan answers differ", q))
			}
		}
	}
	for i, o := range c.in.ops {
		if o.kind != kindQuery || c.errs[i] != nil {
			continue
		}
		var got api.QueryResponse
		if err := json.Unmarshal(replies[i].body, &got); err != nil {
			c.fail(i, err)
			continue
		}
		if len(got.Runs) == 0 || len(got.Runs) > queryLimit {
			c.fail(i, fmt.Errorf("%d runs, want 1..%d", len(got.Runs), queryLimit))
			continue
		}
		for _, run := range got.Runs {
			if run.Repo != o.repo {
				c.fail(i, fmt.Errorf("run of repo %q in a query scoped to %q", run.Repo, o.repo))
				break
			}
		}
	}

	type solo struct {
		body []byte
		err  error
	}
	// One body per (kind, tree), so kind and repo key the direct answers.
	solos := map[string]*solo{}
	for _, o := range c.in.ops {
		if o.kind == kindQuery || solos[o.kind+" "+o.repo] != nil {
			continue
		}
		s := &solo{}
		solos[o.kind+" "+o.repo] = s
		r := post(cl, d.backends[d.home[o.repo]].URL+o.path, o.body)
		if !r.ok() {
			s.err = fmt.Errorf("direct to home shard: status %d %v", r.status, r.err)
			continue
		}
		s.body = r.body
		if o.kind == kindScore {
			s.err = c.checkScore(r.body, c.scoreRef(o.tree))
		} else {
			s.err = checkRank(r.body, o.tree)
		}
	}
	for i, o := range c.in.ops {
		s := solos[o.kind+" "+o.repo]
		if s == nil || c.errs[i] != nil {
			continue
		}
		switch {
		case s.err != nil:
			c.fail(i, s.err)
		case !bytes.Equal(replies[i].body, s.body):
			c.fail(i, fmt.Errorf("routed bytes differ from the home shard's %s", firstDiff(string(replies[i].body), string(s.body))))
		}
	}
}
