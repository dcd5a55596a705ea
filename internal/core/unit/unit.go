// Package unit is the per-file pass's shared substrate: one source file
// parsed and lowered once, its call graph and interprocedural taint
// computed at most once, so lint, findings, the feature enrichment and
// function ranking all read the same facts. Every reader treats the AST
// and IR as read-only.
package unit

import (
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/minic"
)

// Unit is one file's parsed form plus its memoized whole-program facts.
// It is not safe for concurrent use.
type Unit struct {
	File metrics.File
	AST  *minic.Program // nil when the file does not parse
	IR   *ir.Program    // nil when parsing or lowering failed
	Err  error          // why IR is nil

	graph *callgraph.Graph
	taint *dataflow.InterResult
}

// Load parses and lowers f. Parsing is attempted whatever the language
// (the lint AST rules apply to any file that parses as MiniC); consumers
// limited to C-family files check Deep.
func Load(f metrics.File) *Unit {
	u := &Unit{File: f}
	var err error
	if u.AST, err = minic.Parse(f.Content); err != nil {
		u.Err = fmt.Errorf("not parsed as MiniC: %v", err)
	} else if u.IR, err = ir.Lower(u.AST); err != nil {
		u.Err = fmt.Errorf("IR lowering failed: %v", err)
	}
	return u
}

// CFamily reports whether the deep analyses cover the file's language.
func (u *Unit) CFamily() bool {
	return u.File.Language == lang.MiniC || u.File.Language == lang.C
}

// Deep reports whether the deep analyses apply: a C-family file that
// lowered to IR.
func (u *Unit) Deep() bool { return u.CFamily() && u.IR != nil }

// Graph returns the lowered program's call graph. IR must be non-nil.
func (u *Unit) Graph() *callgraph.Graph {
	if u.graph == nil {
		u.graph = callgraph.Build(u.IR)
	}
	return u.graph
}

// Taint returns the default whole-program interprocedural taint result.
// IR must be non-nil.
func (u *Unit) Taint() *dataflow.InterResult {
	if u.taint == nil {
		u.taint = dataflow.AnalyzeProgramTaint(u.IR, dataflow.DefaultInterConfig())
	}
	return u.taint
}
