package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"pcc/internal/exp"
	"pcc/internal/serve"
)

// The serve workload's inputs: single-unit sweeps over a fixed catalog of
// cheap experiments, each at unit seeds 1..serveSeeds, requested with a Zipf
// skew in an order the run's seed draws. The catalog does not depend on the
// seed, so every run computes the same misses and the seed shapes only the
// traffic.
var serveExps = []string{"fig10", "theory", "mixmtu", "linkflap"}

const (
	serveScale = 0.01
	serveSeeds = 2
	// serveRequests is how many units each client requests per pass.
	serveRequests = 400
	// serveZipfS skews the key choice: the hottest key takes about half of
	// a client's requests, the coldest a few.
	serveZipfS = 1.2
)

// serveClients is the number of closed-loop clients, one connection each.
var serveClients = min(2, nproc)

type serveKey struct {
	exp  string
	seed int64
}

// reqResult is one requested unit as the client saw it.
type reqResult struct {
	key       int
	hit       bool
	ms, ttfb  float64 // latency to the end of the body, and to the headers
	bodyBytes int
	shed      bool // answered 429
	err       error
}

// serveWork runs pccserve's server in process on a loopback listener with
// pccserve's default unit workers and a fresh, empty cache per pass; closed
// loop clients replay a seeded script. The first request for each key in a
// pass is a miss that computes the unit and writes the cache with fsync;
// every repeat is a hit that reads, verifies and streams the cached line.
type serveWork struct {
	seed   int64
	t      *tally
	keys   []serveKey
	script [][]int // per client: key indices in request order
	want   [][]byte
	// computeMs is the in-library exp.Run time of each key.
	computeMs []float64

	// Client-side samples of every pass, and per-pass server counters.
	hitMs, missMs, missOverMs, ttfbMs []float64
	hitBytes, hitBodySec              float64
	stats                             []serve.StatsReply
	shed                              int
}

func newServe(seed int64, t *tally) *serveWork {
	s := &serveWork{seed: seed, t: t}
	for _, e := range serveExps {
		for j := 0; j < serveSeeds; j++ {
			s.keys = append(s.keys, serveKey{e, int64(j + 1)})
		}
	}
	s.script = make([][]int, serveClients)
	for c := range s.script {
		var mine []int
		for k := c; k < len(s.keys); k += serveClients {
			mine = append(mine, k)
		}
		rng := rand.New(rand.NewSource(seed*16 + int64(c)))
		z := rand.NewZipf(rng, serveZipfS, 1, uint64(len(mine)-1))
		seen := make(map[int]bool)
		for i := 0; i < serveRequests; i++ {
			k := mine[z.Uint64()]
			s.script[c] = append(s.script[c], k)
			seen[k] = true
		}
		// Every key is requested at least once, so each pass has exactly
		// len(keys) misses whatever the seed.
		for _, k := range mine {
			if !seen[k] {
				s.script[c] = append(s.script[c], k)
			}
		}
	}
	return s
}

// resultLine is the exact line the server streams for a unit.
func (s *serveWork) resultLine(k serveKey, report string) ([]byte, error) {
	return json.Marshal(serve.ResultLine{Experiment: k.exp, Seed: k.seed, Scale: serveScale, Report: report})
}

// setUp computes every unit in library, the reference each served line
// must equal byte for byte, then runs one warm-up pass.
func (s *serveWork) setUp() ([]float64, error) {
	exp.SetWorkers(0)
	exp.SetShards(0)
	for _, k := range s.keys {
		t0 := time.Now()
		rep, err := exp.Run(k.exp, serveScale, k.seed)
		if err != nil {
			return nil, fmt.Errorf("serve reference %s/%d: %w", k.exp, k.seed, err)
		}
		s.computeMs = append(s.computeMs, float64(time.Since(t0).Microseconds())/1e3)
		line, err := s.resultLine(k, rep.String())
		if err != nil {
			return nil, err
		}
		s.want = append(s.want, line)
	}
	pr, err := s.pass(nil)
	return []float64{pr.setup}, err
}

// startServer builds a server over an empty cache in dir and serves it on
// a loopback listener; it returns once /readyz answers 200.
func startServer(dir string, client *http.Client) (base string, stop func() error, err error) {
	srv, err := serve.NewServer(serve.Config{CacheDir: dir})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		srv.Drain()
		if serr := <-served; serr != http.ErrServerClosed {
			return serr
		}
		return err
	}
	base = "http://" + ln.Addr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, stop, nil
			}
		}
		if time.Now().After(deadline) {
			stop()
			return "", nil, fmt.Errorf("server not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *serveWork) pass(tr *tracer) (passResult, error) {
	exp.SetWorkers(0)
	exp.SetShards(0)
	root := tr.begin("pass.serve", 0)
	defer tr.end(root)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return passResult{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-cache-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var pr passResult
	sp := tr.begin("serve.setup", root)
	t0 := time.Now()
	base, stop, err := startServer(dir, client)
	pr.setup = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return pr, err
	}

	results := make([][]reqResult, serveClients)
	var wg sync.WaitGroup
	pr.wall, pr.cpu = timed(func() {
		for c := range s.script {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				seen := make(map[int]bool)
				for _, k := range s.script[c] {
					r := s.request(tr, root, client, base, k, !seen[k])
					seen[k] = true
					results[c] = append(results[c], r)
				}
			}(c)
		}
		wg.Wait()
	})

	st, statsErr := getStats(client, base)
	if err := stop(); err != nil {
		return pr, fmt.Errorf("stopping server: %w", err)
	}
	units := 0
	for _, rs := range results {
		for _, r := range rs {
			units++
			if r.shed {
				s.shed++
			}
			s.t.check(r.err)
			if r.err != nil {
				continue
			}
			if r.hit {
				s.hitMs = append(s.hitMs, r.ms)
				s.ttfbMs = append(s.ttfbMs, r.ttfb)
				s.hitBytes += float64(r.bodyBytes)
				s.hitBodySec += (r.ms - r.ttfb) / 1e3
			} else {
				s.missMs = append(s.missMs, r.ms)
				s.missOverMs = append(s.missOverMs, r.ms-s.computeMs[r.key])
			}
		}
	}
	// The server's own counters must agree with what the clients saw: one
	// miss and one cache write per key, every other request a hit, nothing
	// corrupt. The audit counts as one operation per pass.
	if statsErr == nil {
		statsErr = s.audit(st, units)
	}
	s.t.check(statsErr)
	s.stats = append(s.stats, st)
	pr.ops = units
	return pr, nil
}

func (s *serveWork) audit(st serve.StatsReply, units int) error {
	k := int64(len(s.keys))
	c := st.Cache
	if c.Misses != k || c.Writes != k || c.Hits != int64(units)-k || c.Corrupt != 0 || c.Poisoned != 0 {
		return fmt.Errorf("serve stats %+v: want %d misses and writes, %d hits, none corrupt", c, k, int64(units)-k)
	}
	return nil
}

// request sends one single-unit sweep and checks the stream: status 200, a
// result line byte-equal to the in-library report, then a summary line
// saying the sweep completed.
func (s *serveWork) request(tr *tracer, root int, client *http.Client, base string, k int, miss bool) reqResult {
	r := reqResult{key: k, hit: !miss}
	name := "serve.hit"
	if miss {
		name = "serve.miss"
	}
	sp := tr.begin(name, root)
	defer tr.end(sp)
	key := s.keys[k]
	body := fmt.Sprintf(`{"experiments":[%q],"scales":[%v],"seeds":[%d]}`, key.exp, serveScale, key.seed)
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		r.err = fmt.Errorf("serve %s/%d: %w", key.exp, key.seed, err)
		return r
	}
	r.ttfb = float64(time.Since(t0).Microseconds()) / 1e3
	bsp := tr.begin("serve.body", sp)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(bsp)
	r.ms = float64(time.Since(t0).Microseconds()) / 1e3
	r.bodyBytes = len(data)
	switch {
	case err != nil:
		r.err = fmt.Errorf("serve %s/%d: torn stream: %w", key.exp, key.seed, err)
	case resp.StatusCode == http.StatusTooManyRequests:
		r.shed = true
		r.err = fmt.Errorf("serve %s/%d: shed (429)", key.exp, key.seed)
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("serve %s/%d: status %d", key.exp, key.seed, resp.StatusCode)
	default:
		r.err = s.checkStream(k, data)
	}
	return r
}

func (s *serveWork) checkStream(k int, data []byte) error {
	key := s.keys[k]
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		return fmt.Errorf("serve %s/%d: %d lines, want result and summary", key.exp, key.seed, len(lines))
	}
	if !bytes.Equal(lines[0], s.want[k]) {
		return fmt.Errorf("serve %s/%d: served line differs from the in-library report", key.exp, key.seed)
	}
	var sum serve.SummaryLine
	if err := json.Unmarshal(lines[1], &sum); err != nil || !sum.Done || sum.Completed != 1 || sum.Failed != 0 {
		return fmt.Errorf("serve %s/%d: summary %q, want done with 1 completed", key.exp, key.seed, lines[1])
	}
	return nil
}

func getStats(client *http.Client, base string) (serve.StatsReply, error) {
	var st serve.StatsReply
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// layers reports the serve metrics. The client-side percentiles pool every
// pass of the run (timing a request costs the same traced or not), so
// they rest on as many samples as the run has.
func (s *serveWork) layers(m metricSet) {
	hit50, _ := tailPercentile(s.hitMs, 50)
	hit99, hitP := tailPercentile(s.hitMs, 99)
	miss50, _ := tailPercentile(s.missMs, 50)
	miss90, missP := tailPercentile(s.missMs, 90)
	fmt.Printf("serve latency: %d hits (tail at p%g), %d misses (tail at p%g)\n", len(s.hitMs), hitP, len(s.missMs), missP)
	m["serve.hit_p50_ms"] = hit50
	m["serve.hit_p99_ms"] = hit99
	m["serve.miss_p50_ms"] = miss50
	m["serve.miss_p90_ms"] = miss90
	m["serve.hit_ttfb_ms"] = median(s.ttfbMs)
	m["serve.stream_mb_per_s"] = mbPerSec(s.hitBytes, s.hitBodySec)
	m["serve.compute_ms"] = median(s.computeMs)
	m["serve.miss_overhead_ms"] = median(s.missOverMs)
	var hits, misses, writes, corrupt []float64
	for _, st := range s.stats {
		hits = append(hits, float64(st.Cache.Hits))
		misses = append(misses, float64(st.Cache.Misses))
		writes = append(writes, float64(st.Cache.Writes))
		corrupt = append(corrupt, float64(st.Cache.Corrupt))
	}
	m["serve.hits"] = median(hits)
	m["serve.misses"] = median(misses)
	m["serve.writes"] = median(writes)
	m["serve.corrupt"] = median(corrupt)
	m["serve.shed"] = float64(s.shed)
	get, put := s.cacheProbe()
	m["serve.cache_get_us"] = get
	m["serve.cache_put_ms"] = put
}

// cacheProbe times serve.Cache directly on a scratch cache holding the
// workload's payloads: every Put (temp file, fsync, rename, directory
// fsync) once, every Get (read, checksum verify) cacheGets times.
func (s *serveWork) cacheProbe() (getUs, putMs float64) {
	const cacheGets = 50
	dir, err := os.MkdirTemp(".bench_build", "cache-probe-")
	if err != nil {
		s.t.fail("cache probe: %v", err)
		return 0, 0
	}
	defer os.RemoveAll(dir)
	c, err := serve.NewCache(dir)
	if err != nil {
		s.t.fail("cache probe: %v", err)
		return 0, 0
	}
	var gets, puts []float64
	for i, k := range s.keys {
		key := serve.Key{Experiment: k.exp, Seed: k.seed, Scale: serveScale, Code: "perfbench"}
		t0 := time.Now()
		err := c.Put(key, s.want[i])
		puts = append(puts, float64(time.Since(t0).Microseconds())/1e3)
		if err != nil {
			s.t.fail("cache probe put: %v", err)
			continue
		}
		for j := 0; j < cacheGets; j++ {
			t0 := time.Now()
			got, ok := c.Get(key)
			gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
			if !ok || !bytes.Equal(got, s.want[i]) {
				s.t.fail("cache probe get %s/%d: wrong payload", k.exp, k.seed)
				break
			}
		}
	}
	return median(gets), median(puts)
}

func (s *serveWork) probes() []probeSpec { return paperProbes(s.seed) }
