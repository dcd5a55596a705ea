package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// phases are the daemon's own span phases, read from its /metrics.
var phases = []string{
	"wait", "extract", "base", "lint", "cache", "deep", "findings", "parse", "taint",
	"symexec", "callgraph", "interp", "score", "record", "apply", "rank",
}

// hopPairs is how many requests router.hop_ms sends both routed and direct.
const hopPairs = 40

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rowUnit maps a row name's suffix to its unit and scale from nanoseconds.
func rowUnit(name string) (string, float64) {
	if strings.HasSuffix(name, "_ms") {
		return "ms", 1e6
	}
	return "us", 1e3
}

// perLayer computes the traced run's metrics: the daemon's counters over
// the timed window, the router hop, and the replay's rows. A row whose
// layer is not on this workload's request path reads 0.
func perLayer(e *env, w *window, e2e map[string]metric, scratch string) (map[string]metric, error) {
	in := e.in
	n := float64(len(in.ops))
	done := n * e2e["success_ratio"].Value
	m := map[string]metric{}
	for _, p := range phases {
		m["phase."+p+".ms"] = metric{delta(w, fmt.Sprintf("secmetricd_phase_seconds_total{phase=%q}", p)) * 1e3 / done, "ms"}
		m["phase."+p+".spans"] = metric{delta(w, fmt.Sprintf("secmetricd_phase_spans_total{phase=%q}", p)) / done, "count"}
	}
	hits, misses := delta(w, "secmetricd_featcache_hits_total"), delta(w, "secmetricd_featcache_misses_total")
	var reqKB, respKB, files float64
	for i, o := range in.ops {
		reqKB += float64(len(o.body)) / 1024
		respKB += float64(len(w.replies[i].body)) / 1024
		files += float64(o.files)
	}
	m["featcache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["server.rejected_ratio"] = metric{delta(w, `secmetricd_rejected_total{reason="queue_full"}`) / n, "ratio"}
	m["server.coalesced_ratio"] = metric{coalescedRequests(w) / n, "ratio"}
	m["singleflight.file_coalesced_ratio"] = metric{ratio(delta(w, `secmetricd_coalesced_total{kind="file"}`), misses), "ratio"}
	m["api.req_kb"] = metric{reqKB / n, "KiB"}
	m["api.resp_kb"] = metric{respKB / n, "KiB"}
	m["core.files_per_req"] = metric{files / n, "count"}

	hop := 0.0
	if e.d.router != nil {
		var err error
		if hop, err = routerHop(e); err != nil {
			return nil, err
		}
	}
	m["router.hop_ms"] = metric{hop, "ms"}

	rp, err := replay(filepath.Join(scratch, "replay"), e.model, in)
	if err != nil {
		return nil, err
	}
	for _, name := range append(append([]string(nil), serveRows...), fileRows...) {
		unit, scale := rowUnit(name)
		var v, kb float64
		if r := rp.rows[name]; r != nil {
			v = ratio(float64(r.ns), float64(r.calls)) / scale
			kb = ratio(r.allocKB, float64(r.allocs))
		}
		m[name] = metric{v, unit}
		m[name+".alloc_kb"] = metric{kb, "KiB"}
	}
	perReq := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rp.requests) }
	cpu := e2e["cpu_ms_per_req"].Value
	m["bench.trace_overhead_ratio"] = metric{perReq(rp.cpuNS) / cpu, "ratio"}
	m["bench.replay_coverage"] = metric{perReq(rp.serveNS) / cpu, "ratio"}

	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", in.workload, in.seed))
	if err := writeSpans(path, in.workload, in.seed, rp.spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %d replay spans written to %s\n", len(rp.spans), path)
	return m, nil
}

// routerHop sends the first hopPairs requests both through the router and
// straight to their home shard, alternating which goes first, and returns
// the median per-pair latency difference.
func routerHop(e *env) (float64, error) {
	c := e.ctl
	var diffs []float64
	for i, o := range e.in.ops[:min(hopPairs, len(e.in.ops))] {
		urls := []string{e.d.front.URL, e.d.backends[e.d.home[o.repo]].URL}
		var lat [2]float64
		for k := 0; k < 2; k++ {
			j := (i + k) % 2
			r := post(c, urls[j]+o.path, o.body)
			if !r.ok() {
				return 0, fmt.Errorf("router hop %s: status %d %v", o.path, r.status, r.err)
			}
			lat[j] = float64(r.lat.Nanoseconds()) / 1e6
		}
		diffs = append(diffs, lat[0]-lat[1])
	}
	return median(diffs), nil
}
