// Command shahin-router runs the sharded-serving front tier: it
// consistent-hashes each tuple's discretised itemset signature onto a
// fleet of shahin-serve replicas so the warm-pool and store reuse that
// makes Shahin fast survives the split into shards.
//
//	POST /v1/explain        {"tuple": [..]}        route one tuple
//	POST /v1/explain/batch  {"tuples": [[..],..]}  route a batch
//	GET  /healthz           router liveness
//	GET  /readyz            readiness (503 until a replica is healthy)
//	GET  /replicas          per-replica health and breaker state
//
// Every replica is actively health-checked and guarded by a circuit
// breaker; a failing replica is failed over in ring order (the answer
// is marked degraded, never dropped) and requests are refused only
// when the whole fleet is down. The router must be given the same
// -dataset/-data/-rows/-seed as its replicas: it resolves them through
// the code the replicas use (internal/cli), so equal flags are equal
// statistics, and unequal ones break affinity silently. See
// OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"shahin/internal/cli"
	"shahin/internal/router"
)

func main() {
	var (
		data = cli.DataFlags(flag.CommandLine)
		obsv = cli.ObsFlags(flag.CommandLine, "events-out")

		addr     = flag.String("addr", ":8090", "HTTP listen address (\":0\" picks a port)")
		replicas = flag.String("replicas", "", "comma-separated shahin-serve base URLs, ring order (required)")

		vnodes      = flag.Int("vnodes", router.DefaultVNodes, "virtual points per replica on the hash ring")
		policy      = flag.String("policy", string(router.PolicyAffinity), "routing policy: affinity or roundrobin")
		maxInflight = flag.Int("max-inflight", 256, "in-flight request bound; excess load is shed with 429")

		probeInterval  = flag.Duration("probe-interval", time.Second, "active health-check period")
		probeTimeout   = flag.Duration("probe-timeout", 0, "health-check deadline (0 = half the probe interval)")
		forwardTimeout = flag.Duration("forward-timeout", 30*time.Second, "deadline for one forward attempt to one replica")
	)
	flag.Parse()

	if *replicas == "" {
		cli.Fatal(errors.New("-replicas is required (comma-separated shahin-serve URLs)"))
	}
	urls := strings.Split(*replicas, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSpace(u)
	}

	ctx, stop := cli.Shutdown(context.Background())
	defer stop()

	rec, err := obsv.Start(true)
	if err != nil {
		cli.Fatal(err)
	}
	// The router discretises tuples with the statistics its replicas
	// train on: the same flag group, resolved by the same code.
	env, err := data.Load()
	if err != nil {
		cli.Fatal(err)
	}

	rt, err := router.New(router.Config{
		Replicas:       urls,
		Stats:          env.Stats,
		VNodes:         *vnodes,
		Policy:         router.Policy(*policy),
		MaxInflight:    *maxInflight,
		ForwardTimeout: *forwardTimeout,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		Recorder:       rec,
	})
	if err != nil {
		cli.Fatal(err)
	}
	defer rt.Close()

	banner := func(a net.Addr) {
		fmt.Printf("routing dataset %s over %d replicas on http://%s/ (policy %s, %d vnodes)\n",
			data.Name, len(urls), a, *policy, *vnodes)
	}
	if err := cli.Serve(ctx, *addr, rt.Handler(), banner, 10*time.Second, nil); err != nil {
		cli.Fatal(err)
	}
	if err := obsv.Finish(); err != nil {
		cli.Fatal(err)
	}
}
