// Command loadgen replays progen traffic mixes against a virgil-serve
// fleet and reports latency percentiles plus a full error taxonomy.
// It is the chaos half of the cluster harness: point it at real
// instances with -targets, or let it stand up an in-process fleet with
// -local and schedule a mid-run instance kill/restart with -kill.
//
// Usage:
//
//	loadgen -targets http://h1:8080,http://h2:8080 -mix run-heavy -duration 10s
//	loadgen -local 3 -mix mixed -duration 10s -kill 2
//	VIRGIL_FAULT=peer-stall:delay:0+:5 loadgen -local 3 -check
//
// With -check the run is an SLO gate: it exits nonzero unless every
// response was structured JSON (non_structured == 0) and at least 99%
// of requests were answered by some instance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/progen"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		targets     = fs.String("targets", "", "comma-separated fleet base URLs (mutually exclusive with -local)")
		local       = fs.Int("local", 0, "start an in-process fleet of N instances instead of using -targets")
		mix         = fs.String("mix", progen.MixMixed, "traffic mix: "+strings.Join(progen.MixNames(), ", "))
		duration    = fs.Duration("duration", 5*time.Second, "how long to generate load")
		concurrency = fs.Int("concurrency", 4, "concurrent client workers")
		timeout     = fs.Duration("timeout", 15*time.Second, "per-request client timeout")
		seed        = fs.Int64("seed", 1, "seed for the weighted item choice")
		kill        = fs.Int("kill", -1, "with -local: kill instance INDEX at T/3 and restart it at 2T/3")
		peerTimeout = fs.Duration("peer-timeout", 2*time.Second, "with -local: per-forward-attempt timeout")
		attempts    = fs.Int("peer-attempts", 3, "with -local: forward attempts before degrading")
		check       = fs.Bool("check", false, "gate: exit 1 unless non_structured==0 and answered>=99%")
		jsonOut     = fs.Bool("json", false, "emit the full report as JSON on stdout")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	opts := loadgen.Options{
		Mix:            *mix,
		Duration:       *duration,
		Concurrency:    *concurrency,
		RequestTimeout: *timeout,
		Seed:           *seed,
	}

	var fleet *cluster.Fleet
	switch {
	case *local > 0 && *targets != "":
		fmt.Fprintln(os.Stderr, "loadgen: -local and -targets are mutually exclusive")
		return 2
	case *local > 0:
		f, err := cluster.StartLocal(*local, serve.Config{}, cluster.Config{
			PeerTimeout: *peerTimeout,
			Attempts:    *attempts,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: start fleet:", err)
			return 1
		}
		fleet = f
		opts.Targets = f.URLs()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = f.Stop(ctx)
		}()
	case *targets != "":
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				opts.Targets = append(opts.Targets, strings.TrimSuffix(t, "/"))
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "loadgen: need -targets or -local (see -h)")
		return 2
	}

	// Chaos schedule: kill at T/3, restart at 2T/3 — the fleet absorbs
	// a crash and a rejoin inside one measurement window.
	if *kill >= 0 {
		if fleet == nil || *kill >= len(fleet.Nodes) {
			fmt.Fprintln(os.Stderr, "loadgen: -kill needs -local and a valid instance index")
			return 2
		}
		victim := fleet.Nodes[*kill]
		go func() {
			time.Sleep(*duration / 3)
			fmt.Fprintf(os.Stderr, "loadgen: killing instance %d (%s)\n", *kill, victim.URL)
			victim.Kill()
			time.Sleep(*duration / 3)
			fmt.Fprintf(os.Stderr, "loadgen: restarting instance %d\n", *kill)
			if err := victim.Restart(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: restart failed:", err)
			}
		}()
	}

	res, err := loadgen.Run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
	} else {
		printReport(res)
	}

	if *check {
		failed := false
		if res.NonStructured != 0 {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAIL: %d non-structured responses (want 0)\n", res.NonStructured)
			failed = true
		}
		if ratio := res.AnsweredRatio(); ratio < 0.99 {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAIL: answered ratio %.4f (want >= 0.99)\n", ratio)
			failed = true
		}
		if res.Mismatches != 0 {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAIL: %d expectation mismatches (want 0)\n", res.Mismatches)
			failed = true
		}
		if failed {
			return 1
		}
		fmt.Fprintln(os.Stderr, "loadgen: gate passed")
	}
	return 0
}

func printReport(res loadgen.Result) {
	fmt.Printf("mix=%s targets=%d duration=%s\n", res.Mix, res.Targets, res.Duration)
	fmt.Printf("sent=%d answered=%d (%.2f%%) unanswered=%d failovers=%d\n",
		res.Sent, res.Answered, 100*res.AnsweredRatio(), res.Unanswered, res.Failovers)
	fmt.Printf("non_structured=%d mismatches=%d forwarded=%d degraded=%d\n",
		res.NonStructured, res.Mismatches, res.Forwarded, res.Degraded)
	fmt.Printf("latency: p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
		res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	fmt.Printf("status: %v\n", res.Status)
	if len(res.Kinds) > 0 {
		fmt.Printf("error kinds: %v\n", res.Kinds)
	}
	for _, e := range res.SampleErrors {
		fmt.Printf("  sample: %s\n", e)
	}
}
