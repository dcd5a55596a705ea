package main

import (
	"bytes"
	"testing"
)

func allBodies(in *inputs) [][]byte {
	var out [][]byte
	for _, o := range append(append([]op(nil), in.warm...), in.ops...) {
		out = append(out, o.body)
	}
	return out
}

// analyzedTrees lists the file counts and first-file contents of a
// workload's generated trees: the seeded repos or fleet pool when it has
// them, else the per-request trees.
func analyzedTrees(in *inputs) (counts []int, contents []string) {
	for _, name := range sortedKeys(in.repos) {
		counts = append(counts, len(in.repos[name].Files))
		contents = append(contents, in.repos[name].Files[0].Content)
	}
	if len(counts) > 0 {
		return counts, contents
	}
	for _, o := range in.ops {
		counts = append(counts, len(o.tree.Files))
		contents = append(contents, o.tree.Files[0].Content)
	}
	return counts, contents
}

func TestSameSeedGivesIdenticalBodies(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb := allBodies(a), allBodies(b)
		if len(ab) != len(bb) || len(a.ops) != 40 {
			t.Fatalf("%s: %d vs %d bodies, %d timed", w, len(ab), len(bb), len(a.ops))
		}
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				t.Fatalf("%s: body %d differs between two generations of seed 7", w, i)
			}
		}
	}
}

func TestOtherSeedGivesOtherTreesOfTheSameSize(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		ac, as := analyzedTrees(a)
		bc, bs := analyzedTrees(b)
		if len(ac) == 0 || len(ac) != len(bc) {
			t.Fatalf("%s: %d vs %d trees", w, len(ac), len(bc))
		}
		same := 0
		for i := range ac {
			if ac[i] != bc[i] {
				t.Fatalf("%s: tree %d has %d files under seed 7, %d under seed 8", w, i, ac[i], bc[i])
			}
			if as[i] == bs[i] {
				same++
			}
		}
		if same == len(as) {
			t.Fatalf("%s: seeds 7 and 8 generated the same trees", w)
		}
	}
}

func TestScoreColdTreesAreDistinct(t *testing.T) {
	in, err := generate(wlScoreCold, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range in.ops {
		for _, f := range o.tree.Files {
			if seen[f.Content] {
				t.Fatalf("file content repeats across cold requests; it would hit the feature cache")
			}
			seen[f.Content] = true
		}
	}
}

func TestPartitionKeepsEachRepoOnOneClientInOrder(t *testing.T) {
	in, err := generate(wlDeltaWarm, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for c, idx := range in.partition(2) {
		last := -1
		for _, i := range idx {
			if i <= last {
				t.Fatalf("client %d sends #%d after #%d", c, i, last)
			}
			last = i
			repo := in.ops[i].repo
			if o, ok := owner[repo]; ok && o != c {
				t.Fatalf("%s is edited by clients %d and %d", repo, o, c)
			}
			owner[repo] = c
		}
	}
	if len(owner) != deltaRepos {
		t.Fatalf("%d repos edited, want %d", len(owner), deltaRepos)
	}
}
