// Command idea-node runs one live IDEA node over TCP — the same protocol
// code the emulator drives, behind real sockets. A small line-oriented
// console on stdin drives writes, hints, and resolutions, so a handful of
// terminals (or examples/tcpcluster programmatically) form a working
// deployment. With -admin the node also serves an HTTP endpoint exposing
// its telemetry registry (/metrics — JSON, or Prometheus text with
// ?format=prom), the health engine's verdict and active anomalies
// (/health; the /healthz liveness probe turns 503 on a critical
// verdict), the always-on flight recorder (/debug/flight), pprof
// profiles (/debug/pprof/), and — with -trace-every — the causal-tracing
// span journal (/trace) that cmd/idea-trace merges into a cluster
// timeline. SIGQUIT dumps the flight recorder to stderr without
// stopping the node.
//
// Usage:
//
//	idea-node -id 1 -listen 127.0.0.1:7001 \
//	          -peers 2=127.0.0.1:7002,3=127.0.0.1:7003 -all 1,2,3 \
//	          -top board=1,2,3 -admin 127.0.0.1:9001
//
// With -swim the node runs dynamic membership (SWIM failure detection:
// dead peers are evicted, joiners admitted at runtime); with
// -join <seed-addr> it needs no -peers/-all at all — it fetches the
// member list from the seed, announces itself, and bootstraps its store
// via snapshot transfer. SIGINT/SIGTERM shut down gracefully: the node
// announces its departure before closing.
//
// Console commands:
//
//	write <file> <text>     append an update (triggers detection)
//	read <file>             print the local replica
//	hint <file> <level>     set a hint level, e.g. 0.95
//	resolve <file>          demand active resolution
//	bg <file> <seconds>     set background resolution frequency
//	level <file>            print the last detected consistency level
//	members                 print the live membership view (-swim/-join)
//	metrics                 print the non-zero telemetry counters
//	quit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"idea"
	"idea/internal/cliutil"
)

func main() {
	idFlag := flag.Int64("id", 1, "node ID")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	peers := flag.String("peers", "", "comma-separated id=addr peer list")
	allFlag := flag.String("all", "", "comma-separated node IDs of the full deployment")
	top := flag.String("top", "", "comma-separated file=ids top-layer pins, e.g. board=1,2;log=2,3")
	admin := flag.String("admin", "", "serve /metrics, /health, /healthz, /trace, /debug/flight on this address")
	shards := flag.Int("shards", 0, "per-file serialization domains (0 = one per CPU, 1 = classic single loop)")
	compact := flag.Bool("compact-logs", false, "prune replica logs below the gossip-learned stability frontier (reads then serve only the live suffix)")
	swim := flag.Bool("swim", false, "dynamic membership: SWIM failure detection + live join/leave")
	join := flag.String("join", "", "seed address to join a live cluster (implies -swim; -peers/-all not needed)")
	traceEvery := flag.Int("trace-every", 0, "sample 1 in N writes for causal tracing, journal on /trace (0 = off, 100 = 1%)")
	verbose := flag.Bool("v", false, "verbose transport logging")
	flag.Parse()

	cfg := idea.LiveNodeConfig{
		Self:        idea.NodeID(*idFlag),
		Listen:      *listen,
		Shards:      *shards,
		CompactLogs: *compact,
		Swim:        *swim,
		Join:        *join,
		Tracing:     idea.TracingConfig{SampleEvery: *traceEvery},
	}
	if *verbose {
		cfg.Logger = log.New(os.Stderr, "idea-node ", log.LstdFlags|log.Lmicroseconds)
	}
	var err error
	if cfg.Peers, err = cliutil.ParsePeers(*peers); err != nil {
		fatalf("-peers: %v", err)
	}
	if cfg.All, err = cliutil.ParseIDs(*allFlag); err != nil {
		fatalf("-all: %v", err)
	}
	if len(cfg.All) == 0 {
		cfg.All = cliutil.DefaultAll(cfg.Self, cfg.Peers)
	}
	if cfg.TopLayers, err = cliutil.ParseTops(*top); err != nil {
		fatalf("-top: %v", err)
	}
	if cfg.Join != "" && cfg.TopLayers != nil {
		fatalf("-join and -top are mutually exclusive (a joiner has no static config)")
	}

	node, err := idea.NewLiveNode(cfg)
	if err != nil {
		fatalf("start: %v", err)
	}
	defer node.Close()
	fmt.Printf("node %v listening on %s (%d shard(s))\n", cfg.Self, node.Addr(), node.NumShards())

	if *admin != "" {
		srv, err := idea.ServeNodeAdmin(*admin, node.N)
		if err != nil {
			fatalf("admin: %v", err)
		}
		defer srv.Close()
		fmt.Printf("admin on http://%s/metrics\n", srv.Addr())
	}

	// Graceful shutdown: announce leave (so peers evict us without a
	// suspicion period), then flush and close the node.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nidea-node: %v: leaving cluster\n", s)
		node.Leave(2 * time.Second)
		node.Close()
		os.Exit(0)
	}()

	// SIGQUIT dumps the flight recorder — the unsampled ring of recent
	// protocol events — to stderr and keeps running, the classic "what
	// was this process just doing" probe (`kill -QUIT <pid>`).
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			dumpFlight(node.N)
		}
	}()

	con := &console{node: node, out: os.Stdout}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			// stdin EOF (scripted session): leave as gracefully as quit.
			node.Leave(2 * time.Second)
			return
		}
		if con.exec(sc.Text()) {
			node.Leave(2 * time.Second)
			return
		}
	}
}

func dumpFlight(n *idea.Node) {
	dump := idea.FlightDumpOf(n)
	fmt.Fprintf(os.Stderr, "\nidea-node: SIGQUIT: flight recorder (%d events, %d dropped)\n",
		len(dump.Events), dump.Dropped)
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	enc.Encode(dump)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
