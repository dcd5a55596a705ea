package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	secmetric "repro"
	"repro/internal/featcache"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/store/findex"
)

const modelName = "forest"

// daemon is an in-process secmetricd on loopback TCP: one server, or for
// fleet_warm a shard router in front of two. Every setting is the
// secmetricd command's default, except that history recording is on.
type daemon struct {
	front    *httptest.Server   // what the clients talk to
	backends []*httptest.Server // the secmetricd servers themselves
	stores   []*findex.Store
	router   *router.Router
	// home maps a fleet repo to the backend the router pins it to.
	home map[string]int
}

// hardened mirrors secmetricd's listener timeouts.
func hardened(h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Config.IdleTimeout = 2 * time.Minute
	ts.Start()
	return ts
}

// startDaemon starts n backends with their history stores under dir, plus
// a router in front when n > 1.
func startDaemon(dir string, model *secmetric.Model, n int) (*daemon, error) {
	d := &daemon{home: map[string]int{}}
	var urls []string
	for i := 0; i < n; i++ {
		cache, err := featcache.Open("")
		if err != nil {
			d.close()
			return nil, err
		}
		// Opened the way `secmetricd -db` opens it.
		hist, err := findex.Open(filepath.Join(dir, fmt.Sprintf("history-%d.db", i)))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open history: %w", err)
		}
		d.stores = append(d.stores, hist)
		reg := server.NewRegistry("", nil)
		reg.Register(modelName, model)
		srv := server.New(reg, server.Config{
			QueueDepth:     64,
			RequestTimeout: 2 * time.Minute,
			Cache:          cache,
			MaxBodyBytes:   server.DefaultMaxBodyBytes,
			MaxSessions:    server.DefaultMaxSessions,
			SessionTTL:     server.DefaultSessionTTL,
			History:        hist,
		})
		ts := hardened(srv.Handler())
		d.backends = append(d.backends, ts)
		urls = append(urls, ts.URL)
	}
	if n == 1 {
		d.front = d.backends[0]
		return d, nil
	}
	rt, err := router.New(router.Config{
		Backends:       urls,
		HealthInterval: router.DefaultHealthInterval,
		MaxBodyBytes:   server.DefaultMaxBodyBytes,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.router = rt
	d.front = hardened(rt.Handler())
	return d, nil
}

func (d *daemon) close() {
	if d.router != nil {
		d.front.Close()
		d.router.Close()
	}
	for _, b := range d.backends {
		b.Close()
	}
	for _, s := range d.stores {
		_ = s.Close() // the databases are deleted with their directory
	}
}

// newClient is one keep-alive client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
	lat    time.Duration
}

func post(c *http.Client, url string, body []byte) reply {
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b, err: err, lat: time.Since(t0)}
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// warmup sends the set-up requests through the front door, one at a
// time, and learns each fleet repo's home shard from which backend's
// history grew.
func (d *daemon) warmup(c *http.Client, in *inputs) error {
	for _, o := range in.warm {
		var before []float64
		if d.router != nil {
			for _, b := range d.backends {
				m, err := scrape(c, b.URL)
				if err != nil {
					return err
				}
				before = append(before, m["secmetricd_history_runs_total"])
			}
		}
		if r := post(c, d.front.URL+o.path, o.body); !r.ok() {
			return fmt.Errorf("set-up %s %s: status %d: %v %s", o.path, o.repo, r.status, r.err, r.body)
		}
		for i, b := range before {
			m, err := scrape(c, d.backends[i].URL)
			if err != nil {
				return err
			}
			if m["secmetricd_history_runs_total"] > b {
				d.home[o.repo] = i
			}
		}
		if _, ok := d.home[o.repo]; d.router != nil && !ok {
			return fmt.Errorf("set-up: no backend recorded %s", o.repo)
		}
	}
	return nil
}

// drive runs the closed loop: each client sends its share of the
// sequence, one request at a time, waiting for every reply.
func drive(clients []*http.Client, url string, in *inputs) ([]reply, time.Duration) {
	parts := in.partition(len(clients))
	out := make([]reply, len(in.ops))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, idx := range parts {
		wg.Add(1)
		go func(c *http.Client, idx []int) {
			defer wg.Done()
			// Identical answers share one copy, so the replies kept for
			// the checks do not inflate the heap the daemon's GC scans.
			seen := map[[sha256.Size]byte][]byte{}
			for _, i := range idx {
				r := post(c, url+in.ops[i].path, in.ops[i].body)
				sum := sha256.Sum256(r.body)
				if prev, ok := seen[sum]; ok {
					r.body = prev
				} else {
					seen[sum] = r.body
				}
				out[i] = r
			}
		}(clients[c], idx)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// scrape reads a /metrics page into series → value, the series keyed by
// name plus labels exactly as exposed.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad line %q", url, line)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return out, nil
}

// scrapeAll sums the /metrics series of every backend.
func (d *daemon) scrapeAll(c *http.Client) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, b := range d.backends {
		m, err := scrape(c, b.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
