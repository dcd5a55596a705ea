package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/featcache"
	"repro/pkg/api"
)

func TestCheckScoreCatchesAWrongReport(t *testing.T) {
	c, err := secmetric.DefaultCorpus()
	if err != nil {
		t.Fatal(err)
	}
	model, err := secmetric.Train(c, secmetric.TrainConfig{Kind: secmetric.KindForest, Folds: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	tree := genTree("t", 2, 11)
	fv, diag, err := core.ExtractFeaturesDiagnostics(context.Background(), tree, core.ExtractConfig{Cache: featcache.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.ScoreResponse{Model: modelName, Report: model.Score(tree.Name, fv), Diagnostics: diag})
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{model: model}
	want := chk.scoreRef(tree)
	if err := chk.checkScore(body, want); err != nil {
		t.Fatalf("a correct response was refused: %v", err)
	}
	wrong := strings.Replace(string(body), `"Name":"t"`, `"Name":"u"`, 1)
	if wrong == string(body) {
		t.Fatal("test setup: report name not found in the response")
	}
	if err := chk.checkScore([]byte(wrong), want); err == nil {
		t.Fatal("a response with a wrong report passed the check")
	}
}
