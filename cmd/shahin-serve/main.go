// Command shahin-serve runs the online explanation service: it trains a
// model (or loads a CSV), builds a warm explainer whose frequent-itemset
// pool persists across requests, and serves explanations over HTTP,
// one warm call per computed tuple.
//
//	POST /v1/explain        {"tuple": [..]}        one explanation
//	POST /v1/explain/batch  {"tuples": [[..],..]}  many explanations
//	GET  /healthz           liveness
//	GET  /readyz            readiness (503 while draining)
//	GET  /requests          slow-request exemplars (?trace=<id> for one)
//
// Computed tuples wait their turn at the warm explainer (at most
// -queue-cap of them), and every call shares one pool of pre-labelled
// perturbations.
// Exact-repeat tuples are answered from an explanation store, which
// -store persists across restarts (loaded at startup, snapshotted on
// graceful shutdown).
//
// SIGINT/SIGTERM drains gracefully: admitted requests are answered,
// then the store is snapshotted. A second signal forces an
// immediate exit. See OPERATIONS.md for the full operator guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"shahin"
	"shahin/internal/cli"
	"shahin/internal/serve"
)

func main() {
	var (
		data   = cli.DataFlags(flag.CommandLine)
		model  = cli.ModelFlags(flag.CommandLine)
		faults = cli.FaultFlags(flag.CommandLine)
		obsv   = cli.ObsFlags(flag.CommandLine, "events-out")

		addr = flag.String("addr", ":8080", "HTTP listen address (\":0\" picks a port)")

		queueCap   = flag.Int("queue-cap", 1024, "admission queue bound; requests beyond it are shed with 429")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline, gate wait included (0 disables)")
		staleAfter = flag.Int("stale-after", 0, "renew the itemset pool every this many explained tuples (0 = default 2048)")
		storePath  = flag.String("store", "", "explanation-store snapshot: loaded at startup, written on graceful shutdown")
		warmFrom   = flag.String("warm-from", "", "comma-separated peer URLs to fetch a store snapshot from at startup (first healthy peer wins)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight calls")
	)
	flag.Parse()

	ctx, stop := cli.Shutdown(context.Background())
	defer stop()

	// The serving stack is always instrumented: request tracing and the
	// slow-request ring need a recorder even when no observability
	// endpoint is mounted.
	rec, err := obsv.Start(true)
	if err != nil {
		cli.Fatal(err)
	}

	env, err := data.Load()
	if err != nil {
		cli.Fatal(err)
	}
	if err := model.Train(env, faults, rec); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("model: %d trees, train accuracy %.3f\n", len(env.Forest.Trees), env.Forest.Accuracy(env.Train))
	warm, err := shahin.NewWarm(env.Stats, env.Forest, env.Options, *staleAfter)
	if err != nil {
		cli.Fatal(err)
	}
	srv, err := serve.New(warm, serve.Config{
		QueueCap:       *queueCap,
		RequestTimeout: *reqTimeout,
		StorePath:      *storePath,
		Recorder:       rec,
	})
	if err != nil {
		cli.Fatal(err)
	}
	if *storePath != "" && srv.StoreLen() > 0 {
		fmt.Printf("store: restored %d explanations from %s\n", srv.StoreLen(), *storePath)
	}
	if *warmFrom != "" {
		peers := strings.Split(*warmFrom, ",")
		for i, p := range peers {
			peers[i] = strings.TrimSpace(p)
		}
		n, err := srv.RestoreFromPeers(ctx, peers, nil)
		if err != nil {
			// Peer recovery is best-effort: a replica with no healthy
			// neighbours still serves, it just starts cold.
			fmt.Fprintln(os.Stderr, "shahin-serve: peer warm-up failed:", err)
		} else {
			fmt.Printf("store: warmed %d explanations from peer snapshot\n", n)
		}
	}

	banner := func(a net.Addr) {
		fmt.Printf("serving %s explanations for dataset %s on http://%s/ (queue cap %d)\n",
			env.Options.Explainer, data.Name, a, *queueCap)
	}
	if err := cli.Serve(ctx, *addr, srv.Handler(), banner, *drainWait, srv.Drain); err != nil {
		cli.Fatal(err)
	}
	if *storePath != "" {
		fmt.Printf("store: %d explanations snapshotted to %s\n", srv.StoreLen(), *storePath)
	}
	rep := warm.Report()
	fmt.Printf("\n%s\n", rep.String())
	if err := obsv.Finish(); err != nil {
		cli.Fatal(err)
	}
}
