package dataflow

import (
	"sort"

	"repro/internal/callgraph"
	"repro/internal/ir"
)

// This file implements the interprocedural half of the taint engine: a
// summary-based, bottom-up whole-program analysis. Each function is analyzed
// once per fixpoint round with an origin lattice (which of my parameters, or
// an internal source, does this value depend on?); the result is a Summary.
// Summaries propagate over the SCC condensation of the call graph in
// callee-before-caller order, so a network read in main reaching a
// strcpy-style sink several calls deep is finally counted — the flow the
// intraprocedural AnalyzeTaint stops at the function boundary for.

// InterConfig configures the whole-program analysis. The embedded
// TaintConfig supplies the source/sink/sanitizer tables; its TaintParams
// field is ignored here (parameter taint is a per-root decision, not a
// per-function one — tainting every function's parameters would recount one
// flow once per frame on its call chain).
type InterConfig struct {
	TaintConfig
	// TaintRootParams treats the parameters of call-graph roots (functions
	// no defined function calls, plus main) as attacker-controlled, the
	// "inputs exposed to external attackers" convention.
	TaintRootParams bool
}

// DefaultInterConfig mirrors DefaultTaintConfig with root-parameter taint.
func DefaultInterConfig() InterConfig {
	return InterConfig{TaintConfig: DefaultTaintConfig(), TaintRootParams: true}
}

// SinkReach is one sink transitively reachable from a summarized function.
// Line is the call-site line inside the summarized function: the sink call
// itself at Depth 0, or the call that starts the chain towards it otherwise.
type SinkReach struct {
	Sink  string
	Line  int
	Depth int // call edges from the summarized function to the sink call
}

// Summary is the interprocedural behavior of one function: how taint flows
// through it (parameters to return value) and which sinks fire when taint
// flows in.
type Summary struct {
	Name string
	// ReturnFromParams lists parameter indices whose taint reaches the
	// return value, sorted.
	ReturnFromParams []int
	// ReturnAlways reports that the return value is tainted regardless of
	// inputs (a source call inside the function, or a callee's, reaches it).
	ReturnAlways bool
	// ParamSinks maps a parameter index to the sinks that fire when that
	// parameter is tainted.
	ParamSinks map[int][]SinkReach
	// LocalSinks fire regardless of inputs: taint born inside the function
	// (or returned by a callee's source) reaches them.
	LocalSinks []SinkReach
}

// InterFinding is one whole-program taint flow: inside Func, attacker data
// reaches (a call chain ending in) Sink. Depth counts the call edges between
// Func and the sink call, so Depth 0 is an ordinary intraprocedural finding
// and Depth 2 means the tainted value was passed through two calls before
// hitting the sink.
type InterFinding struct {
	Func  string
	Sink  string
	Line  int
	Depth int
}

// InterResult is the whole-program analysis outcome.
type InterResult struct {
	Findings  []InterFinding
	Summaries map[string]Summary
	// MaxChain is the number of functions on the longest source-to-sink
	// chain observed (max Depth + 1), 0 when there are no findings.
	MaxChain int
}

// originSet is the taint lattice element: a value depends on some subset of
// the current function's parameters and/or on an internal source. Parameters
// beyond the 63rd are not tracked (conservatively clean); MiniC code never
// gets near that, and the lint battery flags >6 parameters long before.
type originSet struct {
	src    bool
	params uint64
}

func (o originSet) empty() bool { return !o.src && o.params == 0 }

func (o originSet) union(p originSet) originSet {
	return originSet{src: o.src || p.src, params: o.params | p.params}
}

// sinkKey dedups sink reaches per summarized function; depth is kept
// separately as a min so fixpoint iteration is monotone.
type sinkKey struct {
	sink string
	line int
}

// summaryBuilder is the mutable fixpoint form of a Summary.
type summaryBuilder struct {
	nParams         int
	returnFromParam uint64
	returnAlways    bool
	paramSinks      []map[sinkKey]int // per param: (sink, line) -> min depth
	localSinks      map[sinkKey]int
}

func newSummaryBuilder(nParams int) *summaryBuilder {
	sb := &summaryBuilder{
		nParams:    nParams,
		paramSinks: make([]map[sinkKey]int, nParams),
		localSinks: map[sinkKey]int{},
	}
	for i := range sb.paramSinks {
		sb.paramSinks[i] = map[sinkKey]int{}
	}
	return sb
}

// addReach records a sink reach for every origin in o: an internal source
// becomes a local sink, parameter origins become conditional ones.
func (sb *summaryBuilder) addReach(o originSet, k sinkKey, depth int) {
	put := func(m map[sinkKey]int) {
		if d, ok := m[k]; !ok || depth < d {
			m[k] = depth
		}
	}
	if o.src {
		put(sb.localSinks)
	}
	for i := 0; i < sb.nParams && i < 64; i++ {
		if o.params&(1<<uint(i)) != 0 {
			put(sb.paramSinks[i])
		}
	}
}

func sinkMapsEqual(a, b map[sinkKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (sb *summaryBuilder) equal(other *summaryBuilder) bool {
	if sb.returnFromParam != other.returnFromParam || sb.returnAlways != other.returnAlways {
		return false
	}
	if !sinkMapsEqual(sb.localSinks, other.localSinks) {
		return false
	}
	for i := range sb.paramSinks {
		if !sinkMapsEqual(sb.paramSinks[i], other.paramSinks[i]) {
			return false
		}
	}
	return true
}

func sortedReaches(m map[sinkKey]int) []SinkReach {
	out := make([]SinkReach, 0, len(m))
	for k, d := range m {
		out = append(out, SinkReach{Sink: k.sink, Line: k.line, Depth: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Sink != out[j].Sink {
			return out[i].Sink < out[j].Sink
		}
		return out[i].Depth < out[j].Depth
	})
	return out
}

func (sb *summaryBuilder) finish(name string) Summary {
	s := Summary{Name: name, ReturnAlways: sb.returnAlways, ParamSinks: map[int][]SinkReach{}}
	for i := 0; i < sb.nParams && i < 64; i++ {
		if sb.returnFromParam&(1<<uint(i)) != 0 {
			s.ReturnFromParams = append(s.ReturnFromParams, i)
		}
		if len(sb.paramSinks[i]) > 0 {
			s.ParamSinks[i] = sortedReaches(sb.paramSinks[i])
		}
	}
	s.LocalSinks = sortedReaches(sb.localSinks)
	return s
}

// analyzeOrigins runs the origin-lattice dataflow over one function against
// the current summary environment and returns the function's new summary.
func analyzeOrigins(f *ir.Func, cfg InterConfig, sums map[string]*summaryBuilder) *summaryBuilder {
	sb := newSummaryBuilder(len(f.Params))

	entry := map[string]originSet{}
	for i, p := range f.Params {
		if i < 64 {
			entry[p] = originSet{params: 1 << uint(i)}
		}
	}

	originOf := func(v ir.Value, t map[string]originSet) originSet {
		switch x := v.(type) {
		case ir.Const:
			return originSet{}
		case ir.Var:
			return t[x.Name]
		case ir.Temp:
			return t[x.String()]
		}
		return originSet{}
	}
	set := func(t map[string]originSet, d ir.Dest, o originSet) {
		if d == nil {
			return
		}
		if o.empty() {
			delete(t, d.String())
		} else {
			t[d.String()] = o
		}
	}

	// transfer applies one block to a state; record is non-nil only on the
	// final pass, when sink reaches are written into the summary.
	transfer := func(b *ir.Block, t map[string]originSet, record bool) {
		for _, instr := range b.Instrs {
			switch x := instr.(type) {
			case *ir.Assign:
				set(t, x.Dst, originOf(x.Src, t))
			case *ir.BinOp:
				set(t, x.Dst, originOf(x.L, t).union(originOf(x.R, t)))
			case *ir.UnOp:
				set(t, x.Dst, originOf(x.X, t))
			case *ir.ArrayLoad:
				set(t, x.Dst, t[x.Array].union(originOf(x.Index, t)))
			case *ir.ArrayStore:
				o := originOf(x.Src, t).union(originOf(x.Index, t))
				if !o.empty() {
					t[x.Array] = t[x.Array].union(o) // weak update: arrays only gain taint
				}
			case *ir.Call:
				var argUnion originSet
				args := make([]originSet, len(x.Args))
				for i, a := range x.Args {
					args[i] = originOf(a, t)
					argUnion = argUnion.union(args[i])
				}
				if callee, ok := sums[x.Name]; ok {
					// Defined function: apply its summary.
					if record {
						for i, ao := range args {
							if ao.empty() || i >= len(callee.paramSinks) {
								continue
							}
							for k, depth := range callee.paramSinks[i] {
								sb.addReach(ao, sinkKey{sink: k.sink, line: x.Line}, depth+1)
							}
						}
					}
					ret := originSet{src: callee.returnAlways}
					for i, ao := range args {
						if i < 64 && callee.returnFromParam&(1<<uint(i)) != 0 {
							ret = ret.union(ao)
						}
					}
					set(t, x.Dst, ret)
					continue
				}
				// External callee: the flat source/sink/sanitizer tables.
				if record && cfg.Sinks[x.Name] {
					for _, ao := range args {
						if !ao.empty() {
							sb.addReach(ao, sinkKey{sink: x.Name, line: x.Line}, 0)
						}
					}
				}
				switch {
				case cfg.Sources[x.Name]:
					set(t, x.Dst, originSet{src: true})
				case cfg.Sanitizers[x.Name]:
					set(t, x.Dst, originSet{})
				default:
					// Unknown callee: result taint follows argument taint.
					set(t, x.Dst, argUnion)
				}
			}
		}
	}

	in := map[*ir.Block]map[string]originSet{}
	out := map[*ir.Block]map[string]originSet{}
	for _, b := range f.Blocks {
		in[b] = map[string]originSet{}
		out[b] = map[string]originSet{}
	}
	joinInto := func(dst map[string]originSet, src map[string]originSet) {
		for k, o := range src {
			dst[k] = dst[k].union(o)
		}
	}
	statesEq := func(a, b map[string]originSet) bool {
		if len(a) != len(b) {
			return false
		}
		for k, o := range a {
			if b[k] != o {
				return false
			}
		}
		return true
	}

	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			newIn := map[string]originSet{}
			if b == f.Entry() {
				joinInto(newIn, entry)
			}
			for _, p := range b.Preds {
				joinInto(newIn, out[p])
			}
			newOut := make(map[string]originSet, len(newIn))
			joinInto(newOut, newIn)
			transfer(b, newOut, false)
			if !statesEq(newIn, in[b]) || !statesEq(newOut, out[b]) {
				in[b] = newIn
				out[b] = newOut
				changed = true
			}
		}
	}

	// Final pass with converged in-sets: record sink reaches and return-value
	// origins.
	for _, b := range f.Blocks {
		t := make(map[string]originSet, len(in[b]))
		joinInto(t, in[b])
		transfer(b, t, true)
		if ret, isRet := b.Term.(*ir.Ret); isRet && ret.Value != nil {
			o := originOf(ret.Value, t)
			sb.returnAlways = sb.returnAlways || o.src
			sb.returnFromParam |= o.params
		}
	}
	return sb
}

// AnalyzeProgramTaint runs the whole-program taint analysis: summaries are
// computed bottom-up over the SCC condensation of the call graph (iterating
// to a fixpoint inside recursive components), then findings are read off the
// converged summaries — every function's source-fed sinks, plus the
// root-parameter flows when cfg.TaintRootParams is set. The result is fully
// deterministic: program order drives every iteration and findings come out
// sorted by (function, line, sink, depth).
func AnalyzeProgramTaint(p *ir.Program, cfg InterConfig) *InterResult {
	g := callgraph.Build(p)
	funcs := map[string]*ir.Func{}
	for _, f := range p.Funcs {
		funcs[f.Name] = f
	}

	sums := map[string]*summaryBuilder{}
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			sums[fn] = newSummaryBuilder(len(funcs[fn].Params))
		}
		// Fixpoint within the component; a singleton without self-recursion
		// converges on the first round.
		for round := 0; ; round++ {
			changed := false
			for _, fn := range comp {
				next := analyzeOrigins(funcs[fn], cfg, sums)
				if !next.equal(sums[fn]) {
					sums[fn] = next
					changed = true
				}
			}
			if !changed {
				break
			}
			if round > 4*len(comp)+64 {
				break // safety valve; the lattice is finite, so unreachable
			}
		}
	}

	res := &InterResult{Summaries: map[string]Summary{}}
	for name, sb := range sums {
		res.Summaries[name] = sb.finish(name)
	}

	roots := map[string]bool{}
	if cfg.TaintRootParams {
		for _, r := range g.Roots() {
			roots[r] = true
		}
		if _, hasMain := funcs["main"]; hasMain {
			roots["main"] = true
		}
	}

	type findingKey struct {
		fn   string
		sink string
		line int
	}
	best := map[findingKey]int{}
	record := func(fn string, r SinkReach) {
		k := findingKey{fn: fn, sink: r.Sink, line: r.Line}
		if d, ok := best[k]; !ok || r.Depth < d {
			best[k] = r.Depth
		}
	}
	for _, f := range p.Funcs {
		s := res.Summaries[f.Name]
		for _, r := range s.LocalSinks {
			record(f.Name, r)
		}
		if roots[f.Name] {
			for _, reaches := range s.ParamSinks {
				for _, r := range reaches {
					record(f.Name, r)
				}
			}
		}
	}

	order := map[string]int{}
	for i, f := range p.Funcs {
		order[f.Name] = i
	}
	for k, d := range best {
		res.Findings = append(res.Findings, InterFinding{Func: k.fn, Sink: k.sink, Line: k.line, Depth: d})
		if d+1 > res.MaxChain {
			res.MaxChain = d + 1
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if order[a.Func] != order[b.Func] {
			return order[a.Func] < order[b.Func]
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Sink != b.Sink {
			return a.Sink < b.Sink
		}
		return a.Depth < b.Depth
	})
	return res
}
