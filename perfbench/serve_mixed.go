package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/progen"
	"repro/internal/serve"
)

const (
	// serveRate is the fixed offered rate, well below what the 2-client
	// generator and the in-process server sustain on 2 CPUs. At this
	// rate both clients are rarely busy with a slow request at once, so
	// few requests wait and latency measures service, not backlog; it
	// still yields 2,000 requests per 25-second window.
	serveRate = 80.0
	// serveClients bounds the generator's goroutines and connections.
	serveClients = 2
	// A round sends the mix's items by weight, hungry items hungryWeight
	// times over, plus freshPerRound never-seen programs: 167 requests.
	// The fresh programs keep cache misses, compiles and evictions
	// flowing. The shares place each percentile inside a class of
	// requests rather than on the edge between two: the slowest item
	// (string_concat, about 20 ms, 1.8%) holds the p99; the other hungry
	// items and the fresh compiles make up the next 3.6%, so the p90 and
	// the p50 fall among the warm requests.
	freshPerRound = 3
	hungryWeight  = 3
	// warmRuns is how many times set-up sends each mix item: past the
	// server's default tier-up threshold of 8 profiled runs.
	warmRuns = 9
)

// serveReq is one request of the traffic sequence: a progen mixed-mix
// item, or a fresh progen.Random program (item < 0).
type serveReq struct {
	item  int
	fresh int64
}

// serveMixed drives an in-process serve.New(serve.Config{}) over a
// loopback listener with the progen mixed traffic: the only workload
// that reaches admission, the warm cache, single-flight and tier-up.
type serveMixed struct {
	seed   int64
	items  []progen.TrafficItem
	srv    *serve.Server
	done   chan error
	url    string
	client *http.Client
	// codeSize sums the set-up (tier-1) instruction counts of the items.
	codeSize int
	seq      []serveReq
	resps    []serveResp
	before   serve.Stats
	after    serve.Stats
}

type serveResp struct {
	status int
	resp   serve.Response
	err    string
	traced bool
}

func setupServeMixed(seed int64) (state, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveMixed{
		seed:  seed,
		items: progen.Mixes()[progen.MixMixed],
		srv:   serve.New(serve.Config{}),
		done:  make(chan error, 1),
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	for k := range s.items {
		for r := 0; r < warmRuns; r++ {
			sr, err := s.send(serveReq{item: k})
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", s.items[k].Name, err)
			}
			if r == 0 {
				s.codeSize += sr.resp.Instrs
			}
		}
	}
	return s, nil
}

// request builds the wire request of r.
func (s *serveMixed) request(r serveReq) (path string, body serve.Request) {
	if r.item < 0 {
		return "/run", serve.Request{Files: []serve.FileJSON{{Name: "fresh.v", Source: progen.Random(r.fresh)}}}
	}
	it := s.items[r.item]
	return it.Path, serve.Request{
		Files:    []serve.FileJSON{{Name: it.FileName, Source: it.Source}},
		MaxSteps: it.MaxSteps, MaxHeap: it.MaxHeap, Tenant: it.Tenant,
	}
}

// send performs one round trip. An answer that is not structured JSON
// is an error.
func (s *serveMixed) send(r serveReq) (serveResp, error) {
	path, req := s.request(r)
	data, err := json.Marshal(req)
	if err != nil {
		return serveResp{}, err
	}
	hr, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return serveResp{}, err
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return serveResp{}, err
	}
	out := serveResp{status: hr.StatusCode}
	if err := json.Unmarshal(body, &out.resp); err != nil {
		return out, fmt.Errorf("unstructured answer (status %d): %.80q", hr.StatusCode, body)
	}
	return out, nil
}

// sequence draws the seeded traffic in rounds: each round sends every
// mix item as many times as its weight and freshPerRound never-seen
// programs, in seeded order, so every run sees the same shares.
func (s *serveMixed) sequence(n int) []serveReq {
	var round []serveReq
	for k, it := range s.items {
		weight := it.Weight
		if strings.HasPrefix(it.Name, "hungry-") {
			weight *= hungryWeight
		}
		for j := 0; j < weight; j++ {
			round = append(round, serveReq{item: k})
		}
	}
	for j := 0; j < freshPerRound; j++ {
		round = append(round, serveReq{item: -1})
	}
	seq := make([]serveReq, 0, n+len(round))
	for r := 0; len(seq) < n; r++ {
		for _, k := range roundOrder(s.seed, r, len(round)) {
			req := round[k]
			if req.item < 0 {
				req.fresh = s.seed*1_000_000 + int64(len(seq))
			}
			seq = append(seq, req)
		}
	}
	return seq[:n]
}

func (s *serveMixed) stats() (serve.Stats, error) {
	var st serve.Stats
	hr, err := s.client.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer hr.Body.Close()
	return st, json.NewDecoder(hr.Body).Decode(&st)
}

func (s *serveMixed) measure(deadline time.Time, tr *tracer) (*window, error) {
	start := time.Now().Add(20 * time.Millisecond)
	n := int(deadline.Sub(start).Seconds()*serveRate) + 1
	s.seq = s.sequence(n)
	s.resps = make([]serveResp, n)
	var err error
	if s.before, err = s.stats(); err != nil {
		return nil, err
	}
	w := &window{}
	// Read the process counters at every slice edge while the requests
	// run; the slices themselves are cut by due time afterwards.
	edges := blockEdges(start, deadline)
	snaps := make([]procSnap, windowBlocks+1)
	snaps[0] = readProc()
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for k, e := range edges {
			time.Sleep(time.Until(e))
			snaps[k+1] = readProc()
		}
	}()
	samples := openLoop(start, deadline, n, serveRate, serveClients, func(i int) {
		var t *tracer
		if tr != nil && tracedOp(i) {
			t = tr
		}
		root := t.begin(i, -1, "op")
		id := t.begin(i, root, "http")
		r, err := s.send(s.seq[i])
		t.end(id)
		t.end(root)
		if err != nil {
			r.err = err.Error()
		}
		r.traced = t != nil
		s.resps[i] = r
	})
	<-ticked
	w.proc = snaps[windowBlocks].sub(snaps[0])
	if s.after, err = s.stats(); err != nil {
		return nil, err
	}
	s.resps = s.resps[:len(samples)]
	w.blocks = make([]block, windowBlocks)
	var inBlock [windowBlocks][]sample
	for i, x := range samples {
		w.attempted++
		w.lat = append(w.lat, ms(x.latency()))
		w.lag = append(w.lag, ms(x.lag()))
		w.traced = append(w.traced, s.resps[i].traced)
		k := 0
		for k < windowBlocks-1 && !x.due.Before(edges[k]) {
			k++
		}
		w.blocks[k].lat = append(w.blocks[k].lat, ms(x.latency()))
		inBlock[k] = append(inBlock[k], x)
	}
	for k := range w.blocks {
		w.blocks[k].busy = busyTime(inBlock[k])
		w.blocks[k].proc = snaps[k+1].sub(snaps[k])
	}
	w.codeSize = s.codeSize
	return w, nil
}

// expected is what a healthy server answers for r: for /run the
// reference run's outcome, for /compile whether it compiles.
func (s *serveMixed) expected(r serveReq) outcome {
	path, req := s.request(r)
	ref := referenceOutcome(oneFile(req.Files[0].Name, req.Files[0].Source), req.MaxSteps, req.MaxHeap)
	if path == "/compile" && ref.kind != "diag" {
		return outcome{kind: "ok"}
	}
	return ref
}

// answer is the outcome a response reports.
func answer(r serve.Response) outcome {
	switch {
	case len(r.Diagnostics) > 0:
		return outcome{kind: "diag"}
	case r.Trap != nil:
		return outcome{kind: "trap:" + r.Trap.Name, output: r.Output}
	case r.Error != nil && r.Error.Kind == "resource":
		return outcome{kind: "resource", output: r.Output}
	case r.OK:
		return outcome{kind: "ok", output: r.Output}
	}
	return outcome{kind: "error: " + fmt.Sprint(r.Error)}
}

// verify compares every answer with the reference outcome of its
// program; a shed, failed or unstructured answer is a failure.
func (s *serveMixed) verify(w *window) error {
	refs := map[serveReq]outcome{}
	for i, r := range s.resps {
		req := s.seq[i]
		want, ok := refs[req]
		if !ok {
			want = s.expected(req)
			refs[req] = want
		}
		switch {
		case r.err != "":
			w.fail("request %d: %s", i, r.err)
		case r.status != http.StatusOK:
			w.fail("request %d: status %d: %+v", i, r.status, r.resp.Error)
		case answer(r.resp) != want:
			w.fail("request %d: answer %+v, reference %+v", i, answer(r.resp), want)
		}
	}
	if d := s.after.Shed - s.before.Shed; d > 0 {
		return fmt.Errorf("server shed %d requests: the offered rate is above capacity", d)
	}
	return nil
}

func (s *serveMixed) layers(w *window, tr *tracer, m metrics) {
	hits := s.after.CacheHits - s.before.CacheHits
	misses := s.after.CacheMisses - s.before.CacheMisses
	if hits+misses > 0 {
		m.set("serve.hit_pct", 100*float64(hits)/float64(hits+misses), "%")
	}
	if total := s.after.Total - s.before.Total; total > 0 {
		m.set("serve.shed_pct", 100*float64(s.after.Shed-s.before.Shed)/float64(total), "%")
	}
	var runs, tier2, coalesced, n int
	var steps int64
	var hitLat, missLat []float64
	for i, r := range s.resps {
		if !r.traced {
			continue
		}
		n++
		if r.resp.Coalesced {
			coalesced++
		}
		if r.resp.Tier > 0 {
			runs++
			if r.resp.Tier == 2 {
				tier2++
			}
		}
		steps += r.resp.Steps
		if r.resp.Cached {
			hitLat = append(hitLat, w.lat[i])
		} else {
			missLat = append(missLat, w.lat[i])
		}
	}
	if n == 0 {
		return
	}
	if runs > 0 {
		m.set("serve.tier2_pct", 100*float64(tier2)/float64(runs), "%")
	}
	m.set("serve.coalesced_pct", 100*float64(coalesced)/float64(n), "%")
	if v, err := percentile(hitLat, 50); err == nil {
		m.set("serve.hit_p50_ms", v, "ms")
	}
	if v, err := percentile(missLat, 50); err == nil {
		m.set("serve.miss_p50_ms", v, "ms")
	}
	m.set("interp.steps_per_op", float64(steps)/float64(n), "count")
	m.set("trace.coverage_pct", coverage(tr.spans, "op"), "%")
}

func (s *serveMixed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.client.CloseIdleConnections()
}
