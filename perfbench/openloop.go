package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request's schedule: when it was due, when a
// client sent it, and when its answer was in.
type sample struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall in the generator
// or the server counts against every request it delays.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests on a fixed schedule, request i due at
// start + i/rate, from the given number of client goroutines; a client
// that is still busy when a request falls due sends it late. send
// performs request i. openLoop returns when every request has been
// answered, or when the next one would fall due after the deadline.
func openLoop(start, deadline time.Time, n int, rate float64, clients int, send func(i int)) []sample {
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				if i >= n || due.After(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				s := sample{due: due, sent: time.Now()}
				send(i)
				s.done = time.Now()
				samples[i] = s
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return samples[:sent.Load()]
}

// busyTime is the wall time during which at least one request was
// outstanding: the union of the [sent, done] intervals.
func busyTime(samples []sample) time.Duration {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a].sent.Before(s[b].sent) })
	var busy time.Duration
	var edge time.Time
	for _, x := range s {
		lo := x.sent
		if lo.Before(edge) {
			lo = edge
		}
		if x.done.After(lo) {
			busy += x.done.Sub(lo)
			edge = x.done
		}
	}
	return busy
}
