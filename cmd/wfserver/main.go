// Command wfserver runs the waitfree service tier: a TCP front end over
// the sharded wait-free KV, optionally crash-recoverable through a log
// store directory (-dir). Kill it however you like — kill -9 included —
// and restart it on the same directory: every acknowledged write is
// replayed.
//
// Usage:
//
//	wfserver -addr :7450 -stats :7451 -dir /var/lib/wfserver
//
//wf:blocking command-line entry point: flag parsing, signal handling and the blocking service tier
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"waitfree/internal/server"
)

func main() {
	addr := flag.String("addr", ":7450", "TCP listen address for the KV protocol")
	stats := flag.String("stats", "", "HTTP listen address for /stats, /stats.txt, /healthz (empty disables)")
	shards := flag.Int("shards", 8, "KV shard count")
	procs := flag.Int("procs", 256, "in-memory connection pid pool size (max concurrent connections without -dir)")
	dir := flag.String("dir", "", "log store directory (empty runs without persistence)")
	snapshotEvery := flag.Int("snap-every", 4096, "records per shard between snapshots")
	flag.Parse()

	cfg := server.Config{
		Addr:          *addr,
		StatsAddr:     *stats,
		Shards:        *shards,
		Procs:         *procs,
		Dir:           *dir,
		SnapshotEvery: *snapshotEvery,
		Logf:          log.Printf,
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfserver: %v\n", err)
		os.Exit(1)
	}
	s.Start()
	log.Printf("wfserver: listening on %s (shards=%d procs=%d dir=%q)", s.Addr(), *shards, *procs, *dir)
	if sa := s.StatsAddr(); sa != nil {
		log.Printf("wfserver: stats on http://%s/stats", sa)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("wfserver: shutting down")
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "wfserver: close: %v\n", err)
		os.Exit(1)
	}
}
