package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/stats"
)

// Transformer maps raw feature vectors into model space. It is the part of
// the testbed a deployed model needs at scoring time, so it persists with
// the model while the corpus does not.
type Transformer struct {
	// LogFeatures are transformed as log10(1+x) before training; the
	// volume-like counts are heavy-tailed across four orders of magnitude.
	LogFeatures []string `json:"log_features"`
	// Impute maps feature names to the corpus-median value substituted
	// when the testbed reports zero. Development-history features (churn,
	// developers, age) and deployment features (attack-graph depth) are
	// unavailable when analyzing a bare source tree; scoring them as
	// literal zero would push the vector far outside the training
	// distribution, so the median is the neutral choice.
	Impute map[string]float64 `json:"impute,omitempty"`
}

// Testbed turns a corpus into training datasets (Figure 4's left half) and
// extracts enriched feature vectors from real source trees (§5.3's
// "automated testbed ... collecting code properties in developer's
// codebase").
type Testbed struct {
	Corpus *corpus.Corpus
	*Transformer
}

// DefaultTransformer returns the standard transformation set.
func DefaultTransformer() *Transformer {
	return &Transformer{
		LogFeatures: []string{
			metrics.FeatKLoC, metrics.FeatFiles, metrics.FeatFunctions,
			metrics.FeatCyclomaticTotal, metrics.FeatCyclomaticMax,
			metrics.FeatHalsteadVolume, metrics.FeatHalsteadEffort,
			metrics.FeatHalsteadBugs, metrics.FeatMaxFunctionLen,
			metrics.FeatLongFunctions, metrics.FeatDeeplyNested,
			metrics.FeatManyParams, metrics.FeatGodFiles,
			metrics.FeatMagicNumbers, metrics.FeatTodoDensity,
			metrics.FeatDupLines, metrics.FeatAvgFunctionLen,
			metrics.FeatNetworkCalls, metrics.FeatFileInputs,
			metrics.FeatEnvInputs, metrics.FeatProcessSpawns,
			metrics.FeatPrivilegeOps, metrics.FeatUnsafeCalls,
			metrics.FeatFormatCalls, metrics.FeatEntryPoints,
			metrics.FeatRASQ, metrics.FeatChurn, metrics.FeatDevelopers,
			metrics.FeatTaintedSinks, metrics.FeatLintWarnings,
			metrics.FeatCallFanOut, metrics.FeatCallDepth,
			metrics.FeatInterTaintedSinks, metrics.FeatTaintDepthMax,
			metrics.FeatCWE121Findings, metrics.FeatCWE134Findings,
			metrics.FeatCWE78Findings,
		},
	}
}

// NewTestbed wraps a corpus with the default transformation.
func NewTestbed(c *corpus.Corpus) *Testbed {
	return &Testbed{Corpus: c, Transformer: DefaultTransformer()}
}

// logCols resolves LogFeatures to column indexes.
func (tb *Transformer) logCols() []int {
	idx := map[string]int{}
	for i, n := range metrics.FeatureNames {
		idx[n] = i
	}
	var cols []int
	for _, n := range tb.LogFeatures {
		if i, ok := idx[n]; ok {
			cols = append(cols, i)
		}
	}
	sort.Ints(cols)
	return cols
}

// ImputedFeatures are the features that cannot be measured from a bare
// source tree and therefore receive corpus medians when reported as zero.
var ImputedFeatures = []string{
	metrics.FeatChurn, metrics.FeatDevelopers, metrics.FeatAgeYears,
	metrics.FeatAttackDepth,
}

// Transform applies the feature transformation to a raw vector, returning
// the model-space row.
func (tb *Transformer) Transform(fv metrics.FeatureVector) []float64 {
	row := fv.Slice()
	if tb.Impute != nil {
		for j, name := range metrics.FeatureNames {
			if row[j] == 0 {
				if median, ok := tb.Impute[name]; ok {
					row[j] = median
				}
			}
		}
	}
	cols := map[int]bool{}
	for _, c := range tb.logCols() {
		cols[c] = true
	}
	for j := range row {
		if cols[j] {
			v := row[j]
			if v < 0 {
				v = 0
			}
			row[j] = math.Log10(1 + v)
		}
	}
	return row
}

// FitImputation computes corpus medians for the imputed features and
// installs them on the transformer. Train calls this automatically.
func (tb *Testbed) FitImputation() {
	tb.Impute = map[string]float64{}
	for _, name := range ImputedFeatures {
		var vals []float64
		for _, a := range tb.Corpus.Apps {
			vals = append(vals, a.Features[name])
		}
		if len(vals) > 0 {
			tb.Impute[name] = stats.Median(vals)
		}
	}
}

// DatasetFor builds the classification dataset of one hypothesis: one row
// per corpus application, transformed features, ground-truth label. A
// corpus whose database is missing an application's records is corrupted,
// and fails loudly here rather than silently labeling the app negative
// (a poisoned label would degrade every model trained on the corpus).
func (tb *Testbed) DatasetFor(h Hypothesis) (*ml.Dataset, error) {
	if h.Label == nil {
		// HypManyVulns binds its threshold to the corpus median.
		median := tb.medianVulnCount()
		return tb.datasetWith(func(a corpus.AppProfile) (bool, error) {
			return float64(a.VulnCount) > median, nil
		})
	}
	return tb.datasetWith(func(a corpus.AppProfile) (bool, error) {
		st, err := tb.Corpus.DB.StatsFor(a.App.Name)
		if err != nil {
			return false, fmt.Errorf("core: corrupted corpus: %s has a profile but no CVE records: %w", a.App.Name, err)
		}
		return h.Label(st), nil
	})
}

func (tb *Testbed) datasetWith(label func(corpus.AppProfile) (bool, error)) (*ml.Dataset, error) {
	var X [][]float64
	var Y []float64
	for _, a := range tb.Corpus.Apps {
		X = append(X, tb.Transform(a.Features))
		yes, err := label(a)
		if err != nil {
			return nil, err
		}
		if yes {
			Y = append(Y, 1)
		} else {
			Y = append(Y, 0)
		}
	}
	return ml.NewDataset(append([]string(nil), metrics.FeatureNames...), ClassNames, X, Y)
}

func (tb *Testbed) medianVulnCount() float64 {
	counts := make([]float64, 0, len(tb.Corpus.Apps))
	for _, a := range tb.Corpus.Apps {
		counts = append(counts, float64(a.VulnCount))
	}
	return stats.Median(counts)
}

// RegressionDataset builds the vulnerability-count regression dataset with
// log10(1+count) targets — the same convention the transformer applies to
// volume-like features. The +1 keeps a zero-vulnerability application (legal
// in imported corpora) at target 0 instead of -Inf; Model.Score inverts
// with 10^x - 1.
func (tb *Testbed) RegressionDataset() (*ml.Dataset, error) {
	var X [][]float64
	var Y []float64
	for _, a := range tb.Corpus.Apps {
		X = append(X, tb.Transform(a.Features))
		Y = append(Y, math.Log10(1+float64(a.VulnCount)))
	}
	return ml.NewDataset(append([]string(nil), metrics.FeatureNames...), nil, X, Y)
}

// LoCOnlyDataset projects a hypothesis dataset down to the single kLoC
// column — the paper's straw-man baseline for the ablation benchmarks.
func (tb *Testbed) LoCOnlyDataset(h Hypothesis) (*ml.Dataset, error) {
	full, err := tb.DatasetFor(h)
	if err != nil {
		return nil, err
	}
	for i, n := range full.AttrNames {
		if n == metrics.FeatKLoC {
			return ml.ProjectColumns(full, []int{i}), nil
		}
	}
	return nil, fmt.Errorf("core: kloc column missing")
}
