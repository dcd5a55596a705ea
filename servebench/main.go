// Command servebench is the end-to-end benchmark of the secmetricd serving
// path. It runs an in-process daemon on loopback TCP (for fleet_warm, a
// shard router in front of two), drives it with a closed loop of two
// keep-alive clients over a seeded, fixed request sequence, checks every
// answer against the library, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced replay). The last line of
// standard output is one JSON object; README.md documents the workloads
// and every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash servebench/run.sh --workload score_cold --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	secmetric "repro"
)

// buildDir is where run.sh builds and every run keeps its scratch files,
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Int("seconds", 15, "nominal length of the timed window; sizes the request sequence")
	traceFlag := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced replay instead of the end-to-end ones")
	flag.Parse()
	if _, ok := nominalRPS[*workload]; !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	res, err := bench(*workload, *seed, *seconds, *traceFlag == 1, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one set-up: the model, the generated requests, the daemon, the
// load clients, and ctl, the client for everything outside the closed
// loop (set-up requests, /metrics scrapes, checks), so that each load
// client holds exactly one connection.
type env struct {
	model   *secmetric.Model
	in      *inputs
	d       *daemon
	clients []*http.Client
	ctl     *http.Client
	dir     string
}

func (e *env) close() {
	for _, c := range append(e.clients, e.ctl) {
		c.CloseIdleConnections()
	}
	e.d.close()
	_ = os.RemoveAll(e.dir) // a leftover is removed with the run's scratch directory
}

// setup trains the forest model, generates and encodes every request body,
// starts the daemon, connects the clients and sends the set-up requests.
func setup(workload string, seed uint64, n int, dir string) (*env, error) {
	c, err := secmetric.DefaultCorpus()
	if err != nil {
		return nil, err
	}
	model, err := secmetric.Train(c, secmetric.TrainConfig{Kind: secmetric.KindForest, Folds: 2, Seed: 17})
	if err != nil {
		return nil, err
	}
	in, err := generate(workload, seed, n)
	if err != nil {
		return nil, err
	}
	backends := 1
	if workload == wlFleetWarm {
		backends = 2
	}
	d, err := startDaemon(dir, model, backends)
	if err != nil {
		return nil, err
	}
	e := &env{model: model, in: in, d: d, ctl: newClient(), dir: dir}
	for i := 0; i < min(closedLoopClients, runtime.NumCPU()); i++ {
		cl := newClient()
		e.clients = append(e.clients, cl)
		resp, err := cl.Get(d.front.URL + "/healthz")
		if err != nil {
			e.close()
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
	}
	if err := d.warmup(e.ctl, in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// window is one timed closed-loop pass over the sequence.
type window struct {
	replies       []reply
	wall, cpu     time.Duration
	before, after map[string]float64
	heapMB        float64
}

func measure(e *env) (*window, error) {
	w := &window{}
	runtime.GC()
	var err error
	if w.before, err = e.d.scrapeAll(e.ctl); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	w.replies, w.wall = drive(e.clients, e.d.front.URL, e.in)
	w.cpu = cpuTime() - cpu0
	if w.after, err = e.d.scrapeAll(e.ctl); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return w, nil
}

func bench(workload string, seed uint64, seconds int, traced bool, scratch string) (*result, error) {
	n := requestCount(workload, seconds)
	var (
		e      *env
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if e, err = setup(workload, seed, n, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	fp := fingerprint(workload, seed, len(e.clients), n)
	fmt.Printf("# fingerprint %s\n", fp)

	w, err := measure(e)
	if err != nil {
		return nil, err
	}
	chk := newChecker(e.model, e.in, w.replies)
	switch workload {
	case wlScoreCold:
		chk.checkScoreCold(w.replies)
	case wlDeltaWarm:
		chk.checkDelta(w.replies)
	case wlFleetWarm:
		chk.checkFleet(e.ctl, e.d, w.replies)
	}
	// Every score and rank lands one history run, except a request that
	// adopted a concurrent identical request's answer.
	recorded := -coalescedRequests(w)
	for _, o := range e.in.ops {
		if o.kind == kindScore || o.kind == kindRank {
			recorded++
		}
	}
	if got := delta(w, "secmetricd_history_runs_total"); got != recorded {
		chk.failGlobal(fmt.Errorf("history recorded %v runs in the window, want %v", got, recorded))
	}
	shown := 0
	for _, err := range chk.errs {
		if err != nil && shown < 5 {
			fmt.Fprintln(os.Stderr, "servebench: failed:", err)
			shown++
		}
	}
	for _, err := range chk.global {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", err)
	}
	failed := chk.failed()
	res := &result{Correct: failed == 0 && len(chk.global) == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}

	e2e := endToEnd(w, setups, n, failed)
	printTable(workload, "end-to-end", e2e, n, len(setups))
	// The JSON carries success_ratio; the failure share is shown here too.
	fmt.Printf("#   %-40s %14.4f %s\n", "fail_ratio", float64(failed)/float64(n), "ratio")
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := perLayer(e, w, e2e, scratch)
	if err != nil {
		return nil, err
	}
	printTable(workload, "per-layer", layers, n, replayCount[workload])
	res.Metrics = layers
	return res, nil
}

// delta is a /metrics series' growth over the timed window.
func delta(w *window, series string) float64 { return w.after[series] - w.before[series] }

// coalescedRequests counts whole requests answered by adoption.
func coalescedRequests(w *window) float64 {
	n := 0.0
	for k := range w.after {
		if strings.HasPrefix(k, `secmetricd_coalesced_total{kind="request"`) {
			n += delta(w, k)
		}
	}
	return n
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func endToEnd(w *window, setups []float64, n, failed int) map[string]metric {
	lat := make([]float64, len(w.replies))
	for i, r := range w.replies {
		lat[i] = float64(r.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	done := float64(max(1, n-failed))
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"req_p50_ms":       {percentile(lat, 0.50), "ms"},
		"req_p95_ms":       {percentile(lat, 0.95), "ms"},
		"throughput_rps":   {done / w.wall.Seconds(), "1/s"},
		"success_ratio":    {1 - float64(failed)/float64(n), "ratio"},
		"cpu_ms_per_req":   {float64(w.cpu.Nanoseconds()) / 1e6 / done, "ms"},
		"retained_heap_mb": {w.heapMB, "MiB"},
	}
}

// printTable prints metrics by name with units and sample counts.
func printTable(workload, kind string, m map[string]metric, requests, samples int) {
	fmt.Printf("# %s %s metrics (%d requests", workload, kind, requests)
	if kind == "end-to-end" {
		fmt.Printf("; latency percentiles over %d samples, setup_s the median of %d set-ups)\n", requests, samples)
	} else {
		fmt.Printf("; replay rows over the first %d requests)\n", samples)
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("#   %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fingerprint stamps the host and the code: CPU model, nproc, GOMAXPROCS,
// Go version, a digest of the sources the benchmark built (the checkout it
// runs in need not be a git repository), the seed and the sample count.
func fingerprint(workload string, seed uint64, clients, n int) string {
	b, _ := json.Marshal(map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest(),
		"workload":   workload,
		"seed":       seed,
		"clients":    clients,
		"samples":    n,
	})
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file under the current
// directory, skipping build output, as "src-" plus 12 hex digits.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
