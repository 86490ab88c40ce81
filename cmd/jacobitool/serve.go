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
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// cmdServe runs the batch-solve service behind its HTTP API (v2), with
// header/idle timeouts on the listener and a graceful drain on
// SIGINT/SIGTERM: the HTTP server stops accepting, in-flight requests
// (event streams included) get their terminal events, then the listener
// closes. With -data the service is durable: jobs are journaled and
// checkpointed there, and a restarted server recovers them — finished
// results are served from the store, queued jobs re-run, in-flight jobs
// resume from their last sweep checkpoint.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8473", "listen address (port 0 picks a free port; the resolved address is printed)")
	workers := fs.Int("workers", 0, "solve-pool size (0 = GOMAXPROCS, capped at 8)")
	queueCap := fs.Int("queue", 0, "queued-job capacity (0 = 1024)")
	threshold := fs.Int("threshold", 0, "matrix size at which auto-selection picks the multicore backend (0 = 64, negative = never auto-select multicore)")
	cacheCap := fs.Int("cache", 0, "result-cache capacity in entries (0 = 256, negative disables)")
	cacheMax := fs.Int64("cache-max", 0, "result-cache byte budget (0 = entries-only bound)")
	laneW := fs.Int("lane-width", 0, "batched-lane width for small jobs (0 disables; >= 2 enables SIMD-lockstep lanes)")
	laneWin := fs.Duration("lane-window", 0, "the longest a lane leader waits for same-shape lane mates; it waits only while a mate is due (0 = service default)")
	retain := fs.Int("retain", 0, "finished-job records kept for status/result queries (0 = 4096, negative retains everything)")
	quota := fs.Int("tenant-quota", 0, "per-tenant queued-job quota (0 disables)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submit rate limit in jobs/sec (0 disables)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant submit burst (0 = ceil of -tenant-rate)")
	shedHW := fs.Int("shed-high-water", 0, "queue depth at which lowest-priority queued jobs are shed (0 disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	dataDir := fs.String("data", "", "durable data directory (empty = in-memory only): journal + sweep checkpoints; a restart recovers and resumes jobs")
	ckptEvery := fs.Int("checkpoint-every", 0, "sweep-checkpoint cadence with -data: 0 = by cost (saves take at most 5% of predicted solve time, but at least one lands half way through a job; every sweep until a job of the same backend, dim and size has measured sweep and save times), k > 0 = every k sweeps, negative = no checkpoints")
	nodeID := fs.String("node-id", "", "this node's cluster ID (required with -cluster; must appear in the -cluster list)")
	clusterSpec := fs.String("cluster", "", "static cluster membership as id=url,id=url,... (self included); enables sharded routing, work stealing and, with -data, journal-shipping replication")
	replicas := fs.Int("replicas", 0, "ring successors receiving this node's journal in cluster mode (0 = 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var peers []cluster.Peer
	if *clusterSpec != "" {
		if *nodeID == "" {
			return errors.New("jacobitool serve: -cluster requires -node-id")
		}
		var err error
		if peers, err = cluster.ParsePeers(*clusterSpec); err != nil {
			return err
		}
	} else if *nodeID != "" {
		return errors.New("jacobitool serve: -node-id requires -cluster")
	}
	var st *store.Store
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			return err
		}
		defer st.Close()
		fmt.Printf("jacobitool serve: durable store at %s\n", *dataDir)
	}
	svc := service.New(service.Config{
		Workers:            *workers,
		QueueCap:           *queueCap,
		MulticoreThreshold: *threshold,
		CacheCap:           *cacheCap,
		CacheMaxBytes:      *cacheMax,
		LaneWidth:          *laneW,
		LaneWindow:         *laneWin,
		RetainJobs:         *retain,
		TenantQueueQuota:   *quota,
		TenantRate:         *tenantRate,
		TenantBurst:        *tenantBurst,
		ShedHighWater:      *shedHW,
		Store:              st,
		CheckpointEvery:    *ckptEvery,
		NodeID:             *nodeID,
	})
	defer svc.Close()

	handler := http.Handler(httpapi.NewHandler(svc))
	if len(peers) > 0 {
		node, err := cluster.New(cluster.Config{
			Self:     *nodeID,
			Peers:    peers,
			Service:  svc,
			Store:    st,
			Replicas: *replicas,
		})
		if err != nil {
			return err
		}
		// Close the node before the service: in-flight shipments and
		// stolen solves settle while the service still accepts them.
		defer node.Close()
		handler = node.Handler(handler)
		fmt.Printf("jacobitool serve: cluster node %s among %d peers\n", *nodeID, len(peers))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	fmt.Printf("jacobitool serve: batch-solve service on %s (%d workers)\n", ln.Addr(), svc.Workers())
	fmt.Println("  POST   /api/v2/jobs             submit {random:{n,seed}|matrix:{n,data}, dim, ordering, backend, idempotency_key, ...}")
	fmt.Println("                                   JSON, or an explicit matrix as an application/x-jacobi-frame body")
	fmt.Println("  POST   /api/v2/batch            submit {jobs:[...]} in one request")
	fmt.Println("  GET    /api/v2/jobs             list job statuses (?cursor=&limit=)")
	fmt.Println("  GET    /api/v2/jobs/{id}        job status")
	fmt.Println("  DELETE /api/v2/jobs/{id}        cancel a job")
	fmt.Println("  GET    /api/v2/jobs/{id}/result finished job's result")
	fmt.Println("  GET    /api/v2/jobs/{id}/events progress stream (NDJSON; SSE via Accept)")
	fmt.Println("  GET    /api/v2/metrics          service metrics")
	fmt.Println("  GET    /metrics                 the same metrics, Prometheus text format")
	fmt.Println("  GET    /healthz                 liveness probe")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Println("jacobitool serve: signal received, draining…")
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(shCtx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			// Streams of still-running jobs outlasted the deadline. A
			// watcher must never lose its terminal event to a drain: end
			// the jobs first — every open stream then receives a canceled
			// terminal event carrying the typed shutdown cause
			// (service.ErrShutdown) and its handler returns — and only
			// then close the listener. With -data those jobs are NOT
			// recorded as canceled: they resume on the next boot.
			fmt.Println("jacobitool serve: drain deadline reached, delivering shutdown events to live streams")
			svc.Close()
			flushCtx, cancelFlush := context.WithTimeout(context.Background(), 5*time.Second)
			err = srv.Shutdown(flushCtx)
			cancelFlush()
			if err != nil {
				// A consumer refusing to read its flushed stream is the
				// only way here; cut the connections.
				srv.Close()
				err = nil
			}
		}
		<-errCh // Serve has returned http.ErrServerClosed
		return err
	}
}
