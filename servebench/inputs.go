package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/langgen"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// The three workloads; README.md says why each was chosen.
const (
	wlScoreCold = "score_cold"
	wlDeltaWarm = "delta_warm"
	wlFleetWarm = "fleet_warm"
)

var workloadNames = []string{wlScoreCold, wlDeltaWarm, wlFleetWarm}

// Request kinds, each one daemon endpoint.
const (
	kindScore = "score"
	kindDelta = "delta"
	kindRank  = "rank"
	kindQuery = "query"
)

// Shape of the generated inputs.
const (
	treeFiles         = 8  // files per scored or ranked tree
	deltaRepos        = 4  // /v1/delta sessions seeded in set-up
	deltaFiles        = 16 // files per delta session
	fleetPool         = 8  // recurring trees behind fleet_warm
	queryLimit        = 5  // runs returned per fleet history query
	minRequests       = 200
	closedLoopClients = 2 // closed-loop clients, one per core of a 2-core host
)

// nominalRPS sizes each workload's fixed request sequence: a run sends
// seconds × nominalRPS requests (at least minRequests), which takes about
// `seconds` on a 2-core host at this benchmark's first commit. The count
// depends only on the arguments, never on how fast the build under test
// is, so every run of a seed sends the same sequence.
var nominalRPS = map[string]int{
	wlScoreCold: 20,
	wlDeltaWarm: 160,
	wlFleetWarm: 50,
}

// op is one request of a workload: its pre-encoded body plus what the
// reference check needs to recompute the answer with the library.
type op struct {
	kind string
	path string
	body []byte
	// repo is the tree name (score, rank), session id (delta) or queried
	// repo (query): the history key and the router's shard key.
	repo string
	// tree is the analyzed tree of a score or rank request.
	tree *metrics.Tree
	// change is the file a delta request replaces.
	change metrics.File
	query  string
	// files counts the files the request hands to extraction.
	files int
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	workload string
	seed     uint64
	// warm are set-up requests, sent once before timing: the delta
	// sessions' seeding changesets, or one score per fleet pool tree.
	warm []op
	// ops is the timed sequence.
	ops []op
	// repos are the delta seed trees or the fleet pool, by name.
	repos map[string]*metrics.Tree
}

// splitmix64 derives independent generator seeds from (seed, stream, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed, stream, i uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(seed)^stream) ^ i)
}

// poolCandidates is how many trees stratifiedPool draws the pool from.
const poolCandidates = 4 * fleetPool

// stratifiedPool picks the fleet pool as a stratified sample: it generates
// poolCandidates trees, orders them by size, and keeps the third of each
// stratum of four. Eight trees drawn at random differ in total size from
// seed to seed by enough to move the workload's cost per request; a
// stratified pool spans the generator's size distribution the same way
// under every seed.
func stratifiedPool(seed uint64) []*metrics.Tree {
	cands := make([]*metrics.Tree, poolCandidates)
	size := make(map[*metrics.Tree]int, poolCandidates)
	for i := range cands {
		cands[i] = genTree("", treeFiles, mix(seed, 4, uint64(i)))
		for _, f := range cands[i].Files {
			size[cands[i]] += len(f.Content)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return size[cands[i]] < size[cands[j]] })
	pool := make([]*metrics.Tree, fleetPool)
	for p := range pool {
		pool[p] = cands[p*4+2]
		pool[p].Name = fmt.Sprintf("pool-%d", p)
	}
	return pool
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, 6, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// genTree generates one loop-free MiniC tree. LoopProb is 0 because with
// the default 0.15 most root functions run into the interpreter's step cap
// on every sample, and the interpreter then hides every other layer.
func genTree(name string, files int, seed uint64) *metrics.Tree {
	spec := langgen.DefaultSpec()
	spec.LoopProb = 0
	spec.Files = files
	spec.Seed = seed
	t := langgen.Generate(spec)
	t.Name = name
	return t
}

func wireTree(t *metrics.Tree) api.Tree {
	out := api.Tree{Name: t.Name, Files: make([]api.File, len(t.Files))}
	for i, f := range t.Files {
		out.Files[i] = api.File{Path: f.Path, Content: f.Content}
	}
	return out
}

func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err)) // plain structs always marshal
	}
	return b
}

func scoreOp(t *metrics.Tree) op {
	return op{kind: kindScore, path: "/v1/score", repo: t.Name, tree: t, files: len(t.Files),
		body: encode(api.ScoreRequest{Tree: wireTree(t)})}
}

func rankOp(t *metrics.Tree) op {
	return op{kind: kindRank, path: "/v1/rank", repo: t.Name, tree: t, files: len(t.Files),
		body: encode(api.RankRequest{Tree: wireTree(t)})}
}

func queryOp(repo string) op {
	q := fmt.Sprintf("repo = %q ORDER BY seq DESC LIMIT %d", repo, queryLimit)
	return op{kind: kindQuery, path: "/v1/query", repo: repo, query: q,
		body: encode(api.QueryRequest{Query: q})}
}

// requestCount is the length of a workload's timed sequence.
func requestCount(workload string, seconds int) int {
	return max(minRequests, seconds*nominalRPS[workload])
}

// generate builds a workload's whole request sequence. The same
// (workload, seed, n) always yields byte-identical bodies.
func generate(workload string, seed uint64, n int) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed, repos: map[string]*metrics.Tree{}}
	switch workload {
	case wlScoreCold:
		// Every request is a distinct tree, so every file misses the
		// feature cache and is deep-analyzed.
		for i := 0; i < n; i++ {
			in.ops = append(in.ops, scoreOp(genTree(fmt.Sprintf("cold-%d", i), treeFiles, mix(seed, 1, uint64(i)))))
		}
	case wlDeltaWarm:
		for r := 0; r < deltaRepos; r++ {
			t := genTree(fmt.Sprintf("repo-%d", r), deltaFiles, mix(seed, 2, uint64(r)))
			in.repos[t.Name] = t
			in.warm = append(in.warm, op{kind: kindDelta, path: "/v1/delta", repo: t.Name, files: len(t.Files),
				body: encode(api.DeltaRequest{RepoID: t.Name, Changeset: api.Changeset{Added: wireTree(t).Files}})})
		}
		// Request k edits repo k mod deltaRepos: one file replaced by
		// freshly generated content.
		for k := 0; k < n; k++ {
			repo := fmt.Sprintf("repo-%d", k%deltaRepos)
			s := mix(seed, 3, uint64(k))
			paths := in.repos[repo].Files
			f := paths[s%uint64(len(paths))]
			f.Content = genTree("edit", 1, s).Files[0].Content
			in.ops = append(in.ops, op{kind: kindDelta, path: "/v1/delta", repo: repo, change: f, files: 1,
				body: encode(api.DeltaRequest{RepoID: repo, Changeset: api.Changeset{
					Modified: []api.File{{Path: f.Path, Content: f.Content}}}})})
		}
	case wlFleetWarm:
		pool := stratifiedPool(seed)
		// One op per (kind, tree), shared by every request that repeats
		// it, so the sequence holds each body once.
		ops := make([][3]op, len(pool))
		for p, t := range pool {
			in.repos[t.Name] = t
			ops[p] = [3]op{scoreOp(t), rankOp(t), queryOp(t.Name)}
			in.warm = append(in.warm, ops[p][0])
		}
		// Exactly 50% recorded score, 25% rank and 25% history query,
		// spread evenly over the pool, in a seeded order. Drawing kind
		// and tree per request instead would let the mix itself vary
		// from seed to seed.
		for _, k := range permutation(n, mix(seed, 5, 0)) {
			kind := [4]int{0, 0, 1, 2}[k%4]
			in.ops = append(in.ops, ops[(k/4)%fleetPool][kind])
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

// partition assigns the timed sequence to the closed-loop clients. Each
// client sends its share in sequence order. Delta requests go to the
// client that owns their repo, so each session sees its edits in order.
func (in *inputs) partition(clients int) [][]int {
	out := make([][]int, clients)
	for i, o := range in.ops {
		c := i % clients
		if o.kind == kindDelta {
			c = (i % deltaRepos) % clients
		}
		out[c] = append(out[c], i)
	}
	return out
}
