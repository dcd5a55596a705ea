package findex

import (
	"fmt"
	"sort"

	"repro/internal/store/query"
)

// evalExpr applies a parsed filter to a run's table row. Semantics, shared
// verbatim by the full-scan and index paths (the planner only narrows
// candidates; this filter is always the final word):
//
//   - score: runs without a recorded score never match a score predicate.
//   - severity: compares the run's maximum finding severity.
//   - cweNNN: the exact per-CWE finding count (no hierarchy rollup).
//   - file: "file = x" means the run has at least one finding in x;
//     != is its complement.
//   - time: Unix seconds.
func evalExpr(r *row, e query.Expr) (bool, error) {
	switch n := e.(type) {
	case *query.And:
		l, err := evalExpr(r, n.L)
		if err != nil || !l {
			return false, err
		}
		return evalExpr(r, n.R)
	case *query.Or:
		l, err := evalExpr(r, n.L)
		if err != nil || l {
			return l, err
		}
		return evalExpr(r, n.R)
	case *query.Not:
		v, err := evalExpr(r, n.E)
		return !v, err
	case *query.Cmp:
		return evalCmp(r, n)
	default:
		return false, fmt.Errorf("findex: unknown expression node %T", e)
	}
}

func cmpNum(a float64, op query.Op, b float64) bool {
	switch op {
	case query.OpEq:
		return a == b
	case query.OpNe:
		return a != b
	case query.OpGt:
		return a > b
	case query.OpGe:
		return a >= b
	case query.OpLt:
		return a < b
	default:
		return a <= b
	}
}

func evalCmp(r *row, c *query.Cmp) (bool, error) {
	switch c.Field {
	case query.FieldScore:
		if !r.hasScore {
			return false, nil
		}
		return cmpNum(r.score, c.Op, c.Val.Num), nil
	case query.FieldSeq:
		return cmpNum(float64(r.seq), c.Op, c.Val.Num), nil
	case query.FieldTotal:
		return cmpNum(float64(r.total), c.Op, c.Val.Num), nil
	case query.FieldCWE:
		return cmpNum(float64(r.count(c.CWE)), c.Op, c.Val.Num), nil
	case query.FieldSeverity:
		lvl, err := query.SeverityOperand(c.Val)
		if err != nil {
			return false, err
		}
		return cmpNum(float64(r.maxSev), c.Op, float64(lvl)), nil
	case query.FieldTime:
		t, err := query.TimeOperand(c.Val)
		if err != nil {
			return false, err
		}
		return cmpNum(float64(r.time), c.Op, float64(t)), nil
	case query.FieldRepo:
		if c.Op == query.OpEq {
			return r.repo == c.Val.Str, nil
		}
		return r.repo != c.Val.Str, nil
	case query.FieldFile:
		has := r.hasFile(c.Val.Str)
		if c.Op == query.OpEq {
			return has, nil
		}
		return !has, nil
	default:
		return false, fmt.Errorf("findex: unknown field %q", c.Field)
	}
}

// sortRuns orders results deterministically: by the requested key, ties
// (and the no-ORDER-BY default) broken by (repo, seq) ascending. The same
// comparator serves the index and full-scan paths, a precondition of their
// byte-for-byte parity.
func sortRuns(runs []*row, q *query.Query) {
	sort.SliceStable(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if q.OrderBy != "" {
			if less, eq := orderLess(a, b, q); !eq {
				return less != q.Desc // reverse for DESC
			}
		}
		if a.repo != b.repo {
			return a.repo < b.repo
		}
		return a.seq < b.seq
	})
}

// orderLess compares a and b on the ORDER BY key (ascending sense),
// returning eq=true when tied.
func orderLess(a, b *row, q *query.Query) (less, eq bool) {
	switch q.OrderBy {
	case query.FieldRepo:
		return a.repo < b.repo, a.repo == b.repo
	case query.FieldFile:
		return a.first < b.first, a.first == b.first
	}
	na, nb := orderNum(a, q), orderNum(b, q)
	return na < nb, na == nb
}

func orderNum(r *row, q *query.Query) float64 {
	switch q.OrderBy {
	case query.FieldScore:
		// Unscored runs order as 0 (filtering is stricter: they never
		// match score predicates).
		return r.score
	case query.FieldTime:
		return float64(r.time)
	case query.FieldSeq:
		return float64(r.seq)
	case query.FieldTotal:
		return float64(r.total)
	case query.FieldSeverity:
		return float64(r.maxSev)
	case query.FieldCWE:
		return float64(r.count(q.OrderCWE))
	default:
		return 0
	}
}
