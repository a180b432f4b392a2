// Command positserve exposes the fault-injection engine as an HTTP
// service: synchronous single-bit what-if queries on /v1/inject,
// durable campaign jobs on /v1/campaigns (bounded queue, resumable
// across restarts from the shard stores under -data-dir), and
// positres-telemetry/v1 snapshots plus per-endpoint counters on
// /metrics. docs/SERVICE.md is the API reference.
//
// Usage:
//
//	positserve -data-dir state/
//	positserve -addr 127.0.0.1:0 -data-dir state/ -queue-depth 8
//
// The first stdout line is always "positserve: listening on
// http://HOST:PORT", so scripts can bind -addr 127.0.0.1:0 and scrape
// the chosen port.
//
// On SIGINT/SIGTERM the server drains gracefully: the listener stops,
// running campaigns are cancelled through the runner (completed
// shards stay stored, manifests record "cancelled"), and the
// process exits 0; the next start on the same -data-dir resumes
// unfinished jobs automatically.
//
// Exit codes: 0 clean shutdown; 1 fatal error; 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"positres/internal/serve"
	"positres/internal/telemetry"
)

// Exit codes of the server process.
const (
	exitOK    = 0
	exitFatal = 1
	exitUsage = 2
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("positserve", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		dataDir         = fs.String("data-dir", "", "state root for jobs and their stores (required)")
		queueDepth      = fs.Int("queue-depth", 64, "max campaigns queued but not yet running (beyond it: 429)")
		jobWorkers      = fs.Int("job-workers", 1, "campaigns run concurrently")
		campaignWorkers = fs.Int("campaign-workers", 0, "shard workers per campaign (0 = GOMAXPROCS)")
		requestTimeout  = fs.Duration("request-timeout", 15*time.Second, "deadline for synchronous endpoints")
		workersFlag     = fs.String("workers", "", "comma-separated worker base URLs to coordinate (campaign shards are dispatched to them)")
		register        = fs.String("register", "", "coordinator base URL to self-register with as a worker")
		advertise       = fs.String("advertise", "", "base URL the coordinator should dial this worker at (default http://<addr> once listening)")
		heartbeat       = fs.Duration("heartbeat", 5*time.Second, "worker health-probe period in coordinator mode")
		crashAfter      = fs.Int("debug-crash-after", 0, "TESTING: exit(137) without drain after N shard completions")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitUsage
	}
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "positserve: -data-dir is required")
		fs.Usage()
		return exitUsage
	}

	var workers []string
	if *workersFlag != "" {
		for _, u := range strings.Split(*workersFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workers = append(workers, u)
			}
		}
	}

	metrics := telemetry.New()
	telemetry.Publish("positserve", metrics)
	srv, err := serve.New(serve.Config{
		DataDir:           *dataDir,
		QueueDepth:        *queueDepth,
		JobWorkers:        *jobWorkers,
		CampaignWorkers:   *campaignWorkers,
		RequestTimeout:    *requestTimeout,
		Metrics:           metrics,
		Workers:           workers,
		HeartbeatInterval: *heartbeat,
		CrashAfterShards:  *crashAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "positserve:", err)
		return exitFatal
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "positserve:", err)
		return exitFatal
	}
	// First line of output, parsed by scripts/serve_e2e.sh and
	// scripts/cluster_e2e.sh to learn the port when -addr ends in :0.
	fmt.Printf("positserve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	if *register != "" {
		// Worker mode: announce ourselves to the coordinator. Retried a
		// few times so start order does not matter in scripts.
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		go func() {
			client := serve.NewClient(*register, nil)
			for attempt := 1; attempt <= 5; attempt++ {
				rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				err := client.RegisterWorker(rctx, self)
				cancel()
				if err == nil {
					fmt.Printf("positserve: registered with coordinator %s as %s\n", *register, self)
					return
				}
				fmt.Fprintf(os.Stderr, "positserve: register attempt %d: %v\n", attempt, err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Duration(attempt) * time.Second):
				}
			}
			fmt.Fprintln(os.Stderr, "positserve: giving up registering with coordinator")
		}()
	}

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// The drain goroutine consults ctx: on the first signal it stops
	// the listener (in-flight requests get 5s to finish), which
	// unblocks hs.Serve below.
	go func(ctx context.Context) {
		<-ctx.Done()
		sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sdCtx); err != nil {
			fmt.Fprintln(os.Stderr, "positserve: shutdown:", err)
		}
	}(ctx)

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "positserve:", err)
		return exitFatal
	}
	// Listener is down; wait for running campaigns to cancel and
	// record their state before exiting 0.
	srv.Wait()
	fmt.Println("positserve: drained, exiting")
	return exitOK
}
