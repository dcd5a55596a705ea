package findex

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/findings"
	"repro/internal/store/query"
)

// Options tunes query execution.
type Options struct {
	// ForceFullScan disables the planner, always filtering every run.
	// The parity tests (and the CLI's -full-scan flag) compare its output
	// byte-for-byte against the planned path.
	ForceFullScan bool
}

// Explain describes how a query executed.
type Explain struct {
	// Index names the access path, e.g. `cwe121`, `file("src/a.c")`,
	// `severity[high..critical]`; empty for a full scan.
	Index string
	// FullScan reports whether every run was a candidate.
	FullScan bool
	// Candidates counts runs the access path yielded (index hits, or all
	// runs for a full scan); Matched counts runs that passed the filter,
	// before LIMIT.
	Candidates int
	Matched    int
}

// String renders the one-line form the CLI's -explain flag prints.
func (e *Explain) String() string {
	path := "full scan"
	if !e.FullScan {
		path = "index=" + e.Index
	}
	return fmt.Sprintf("plan: %s; candidates=%d matched=%d", path, e.Candidates, e.Matched)
}

// planKind is the chosen access path.
type planKind int

const (
	planFull planKind = iota
	planFile
	planCWE
	planSev
	planTime
	planRepo
)

type plan struct {
	kind planKind
	file string
	cwe  uint32
	// severity levels [sevLo, sevHi], inclusive; empty when sevLo > sevHi.
	sevLo, sevHi int
	// time window [timeLo, timeHi); has* mark which bounds exist.
	timeLo, timeHi int64
	hasLo, hasHi   bool
	repo           string
}

func (p *plan) describe() string {
	switch p.kind {
	case planFile:
		return fmt.Sprintf("file(%q)", p.file)
	case planCWE:
		return fmt.Sprintf("cwe%d", p.cwe)
	case planSev:
		if p.sevLo > p.sevHi {
			return "severity[empty]"
		}
		names := []string{"info", "low", "medium", "high", "critical"}
		return fmt.Sprintf("severity[%s..%s]", names[p.sevLo], names[p.sevHi])
	case planTime:
		lo, hi := "..", ".."
		if p.hasLo {
			lo = fmt.Sprint(p.timeLo)
		}
		if p.hasHi {
			hi = fmt.Sprint(p.timeHi)
		}
		return fmt.Sprintf("time[%s,%s)", lo, hi)
	case planRepo:
		return fmt.Sprintf("repo(%q)", p.repo)
	default:
		return ""
	}
}

// andLeaves collects the comparison leaves reachable through AND nodes
// only — the predicates every matching row must satisfy, hence the ones an
// index may narrow by. Anything under OR or NOT is opaque to the planner.
func andLeaves(e query.Expr, out *[]*query.Cmp) {
	switch n := e.(type) {
	case *query.And:
		andLeaves(n.L, out)
		andLeaves(n.R, out)
	case *query.Cmp:
		*out = append(*out, n)
	}
}

// planQuery picks the access path. Candidate sets from an index are always
// a superset of the true matches (the full row filter runs afterwards), so
// the choice affects cost only, never results. Priority: file equality
// (most selective) > CWE presence > severity floor > time window > repo.
func planQuery(where query.Expr) *plan {
	if where == nil {
		return &plan{kind: planFull}
	}
	var cmps []*query.Cmp
	andLeaves(where, &cmps)

	for _, c := range cmps {
		if c.Field == query.FieldFile && c.Op == query.OpEq {
			return &plan{kind: planFile, file: c.Val.Str}
		}
	}
	for _, c := range cmps {
		if c.Field != query.FieldCWE {
			continue
		}
		v := c.Val.Num
		// Indexable iff the predicate implies count >= 1 (the index only
		// lists runs where the CWE occurs).
		if (c.Op == query.OpGt && v >= 0) || (c.Op == query.OpGe && v >= 1) || (c.Op == query.OpEq && v >= 1) {
			return &plan{kind: planCWE, cwe: c.CWE}
		}
	}
	for _, c := range cmps {
		if c.Field != query.FieldSeverity {
			continue
		}
		lvl, err := query.SeverityOperand(c.Val)
		if err != nil {
			continue
		}
		p := &plan{kind: planSev, sevHi: 4}
		switch c.Op {
		case query.OpEq:
			p.sevLo, p.sevHi = lvl, lvl
		case query.OpGe:
			p.sevLo = lvl
		case query.OpGt:
			p.sevLo = lvl + 1
		default:
			continue
		}
		if p.sevLo < 0 {
			p.sevLo = 0
		}
		if p.sevHi > 4 {
			p.sevHi = 4
		}
		return p
	}
	if p := planTimeWindow(cmps); p != nil {
		return p
	}
	for _, c := range cmps {
		if c.Field == query.FieldRepo && c.Op == query.OpEq {
			return &plan{kind: planRepo, repo: c.Val.Str}
		}
	}
	return &plan{kind: planFull}
}

// planTimeWindow folds every AND-level time comparison into one [lo, hi)
// window; non-integer operands widen the window by one second (supersets
// are safe, gaps are not).
func planTimeWindow(cmps []*query.Cmp) *plan {
	p := &plan{kind: planTime}
	for _, c := range cmps {
		if c.Field != query.FieldTime {
			continue
		}
		t, err := query.TimeOperand(c.Val)
		if err != nil {
			continue
		}
		frac := c.Val.IsNum && c.Val.Num != math.Trunc(c.Val.Num)
		switch c.Op {
		case query.OpGe:
			p.setLo(t)
		case query.OpGt:
			if frac {
				p.setLo(t) // t was truncated; t>x with frac x means >= t+1, but superset is fine
			} else {
				p.setLo(t + 1)
			}
		case query.OpLt:
			if frac {
				p.setHi(t + 1) // t was truncated; widen to keep the superset
			} else {
				p.setHi(t)
			}
		case query.OpLe:
			p.setHi(t + 1)
		case query.OpEq:
			p.setLo(t)
			p.setHi(t + 1)
		}
	}
	if !p.hasLo && !p.hasHi {
		return nil
	}
	return p
}

func (p *plan) setLo(t int64) {
	if !p.hasLo || t > p.timeLo {
		p.timeLo, p.hasLo = t, true
	}
}

func (p *plan) setHi(t int64) {
	if !p.hasHi || t < p.timeHi {
		p.timeHi, p.hasHi = t, true
	}
}

// Query executes a parsed query and reports how it ran. Results are sorted
// deterministically (ORDER BY key, then repo, seq) and capped by LIMIT.
// The planner only picks which rows of the run table are candidates; the
// filter, sort and LIMIT run on the table, and only the returned runs are
// read from the log. The planned path and the full-scan path therefore
// return byte-identical results; opt.ForceFullScan exists so callers can
// check.
func (s *Store) Query(q *query.Query, opt Options) ([]Run, *Explain, error) {
	p := planQuery(q.Where)
	if opt.ForceFullScan {
		p = &plan{kind: planFull}
	}
	ex := &Explain{Index: p.describe(), FullScan: p.kind == planFull}

	var matches []*row
	s.tmu.RLock()
	for _, list := range s.t.candidates(p) {
		for _, r := range list {
			ex.Candidates++
			if q.Where != nil {
				ok, err := evalExpr(r, q.Where)
				if err != nil {
					s.tmu.RUnlock()
					return nil, nil, err
				}
				if !ok {
					continue
				}
			}
			matches = append(matches, r)
		}
	}
	s.tmu.RUnlock()
	ex.Matched = len(matches)
	sortRuns(matches, q)
	if q.Limit >= 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	out := make([]Run, len(matches))
	for i, r := range matches {
		if err := s.read(r, &out[i]); err != nil {
			return nil, nil, err
		}
	}
	return out, ex, nil
}

// candidates returns the rows the plan's access path yields.
func (t *table) candidates(p *plan) [][]*row {
	switch p.kind {
	case planFile:
		return [][]*row{t.byFile[p.file]}
	case planCWE:
		return [][]*row{t.byCWE[p.cwe]}
	case planSev:
		var lists [][]*row
		for lvl := p.sevLo; lvl <= p.sevHi; lvl++ {
			lists = append(lists, t.bySev[findings.Severity(lvl)])
		}
		return lists
	case planTime:
		at := func(ts int64) int {
			return sort.Search(len(t.byTime), func(i int) bool { return t.byTime[i].time >= ts })
		}
		lo, hi := 0, len(t.byTime)
		if p.hasLo {
			lo = at(p.timeLo)
		}
		if p.hasHi {
			hi = at(p.timeHi)
		}
		if hi < lo {
			hi = lo
		}
		return [][]*row{t.byTime[lo:hi]}
	case planRepo:
		return [][]*row{t.byRepo[p.repo]}
	}
	return [][]*row{t.all}
}

// QueryString parses and executes src in one call.
func (s *Store) QueryString(src string, opt Options) ([]Run, *Explain, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return s.Query(q, opt)
}
