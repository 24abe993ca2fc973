// Command scansd is the scan service daemon: a TCP front end over
// internal/serve's batching server. Clients speak newline-delimited
// JSON (one request per line, one response per line, matched by id):
//
//	{"id":1,"op":"sum","kind":"exclusive","dir":"forward","data":[2,1,2]}
//	{"id":1,"result":[0,2,3]}
//
// Every connection's requests fuse into the same batches, so N remote
// clients issuing small scans cost one segmented kernel pass per
// batching window, not N passes. cmd/scanload is the matching load
// driver.
//
// A connection may instead negotiate the length-prefixed BINARY
// protocol (internal/binwire) by opening with the "\x00bin/1\n"
// preamble: payload vectors travel as raw little-endian words with no
// per-element parsing, and any number of requests multiplex in flight
// on one connection. The server answers the preamble in kind and
// speaks binary for the rest of the connection; clients that never send
// it get newline-JSON. serve.DialBin (and scanload -proto bin) speak
// it.
//
// Error responses carry a machine-readable "code" ("overloaded",
// "shed", "deadline", "internal", ...) so clients can branch retry vs
// give-up; requests may carry "timeout_ms" (the server drops them
// unexecuted once expired) and "tenant" (fair-share batching domain,
// defaulting to the connection).
//
// Long vectors stream: "type":"stream_open" / "stream_chunk" /
// "stream_close" messages push one logical vector through the batcher
// chunk by chunk, the server carrying the running prefix across chunks
// (DESIGN.md §5). -max-streams and -stream-ttl bound the per-connection
// session state. The -chaos flag arms fault-injection
// points for soak testing the failure paths: a comma-separated list of
// name:probability[:duration] triples, e.g.
//
//	scansd -chaos 'kernel.panic:0.001,kernel.slow:0.01:5ms,conn.drop:0.002'
//
// over the points kernel.slow, kernel.panic, conn.drop,
// conn.partialwrite, exec.stall, and queue.corrupt-detect (plus
// cluster.worker.slow and cluster.worker.drop in coordinator mode).
//
// With -coordinator, scansd is instead a cluster COORDINATOR: it speaks
// the same wire protocol on the same -addr, but executes nothing
// locally — each scan is split into weight-proportional shards
// dispatched concurrently to the scansd workers named by -workers, with
// per-shard retries, hedging, and health-based ejection (DESIGN.md §6):
//
//	scansd -addr :7187 &                          # worker A
//	scansd -addr :7188 &                          # worker B
//	scansd -coordinator -addr :7190 -workers 127.0.0.1:7187,127.0.0.1:7188
//
// Results are bit-identical to a single worker serving the same scan.
//
// The control plane is dynamic and fault tolerant:
//
//   - Worker auto-discovery: a worker started with -announce
//     <coordinator-addr> heartbeats its own address into the
//     coordinator every -heartbeat interval and joins the live fleet
//     within one interval, no coordinator restart. A worker whose
//     heartbeats stop is ejected after -heartbeat-ttl; in-flight pieces
//     retry on the rest of the fleet. -workers may be empty on a pure
//     announce-driven coordinator.
//   - Coordinator standby failover: a coordinator with -repl-listen
//     publishes its stream-session records; a second coordinator with
//     -follow <primary-repl-addr> mirrors them and can serve resumed
//     streams (by the resume token clients get at stream-open) after
//     the primary dies — bit-identically. See DESIGN.md §9.
//   - Adaptive shard weights: per-worker latency EWMAs scale each
//     worker's planned share (bounded below by -weight-floor), so a
//     slow worker sheds load and earns it back when it recovers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only with -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scans/internal/cluster"
	"scans/internal/fault"
	"scans/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7187", "TCP listen address")
		maxElems  = flag.Int("max-batch-elems", 1<<16, "flush a batch at this many fused elements")
		maxReqs   = flag.Int("max-batch-requests", 4096, "flush a batch at this many requests (1 = unfused)")
		maxWait   = flag.Duration("max-wait", 100*time.Microsecond, "batching window: how long the first request waits for company")
		queue     = flag.Int("queue", 4096, "bounded submission queue (full queue rejects with an overload error)")
		queueAge  = flag.Duration("queue-age", time.Second, "shed queued requests older than this before execution (0 = never shed)")
		executors = flag.Int("executors", 0, "batch executor pool size (0 = GOMAXPROCS)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a worker")
		workerAddrs = flag.String("workers", "", "coordinator: comma-separated worker addresses (host:port,...; may be empty with announce-driven discovery)")
		weights     = flag.String("worker-weights", "", "coordinator: comma-separated relative worker weights (default: equal)")
		minShard    = flag.Int("min-shard", 4096, "coordinator: don't split scans into shards smaller than this")
		maxPiece    = flag.Int("max-piece", 0, "coordinator: max elements per dispatched piece (0 = line-budget default)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "coordinator: duplicate a slow shard on another worker after this long (0 = off)")
		ejectAfter  = flag.Int("eject-after", 3, "coordinator: eject a worker after this many consecutive connection failures")
		probeEvery  = flag.Duration("probe-interval", time.Second, "coordinator: probe ejected workers this often")
		workerProto = flag.String("worker-proto", serve.ProtoBin, "coordinator: wire protocol to workers (bin or json)")
		beatTTL     = flag.Duration("heartbeat-ttl", 2*time.Second, "coordinator: eject announced workers silent this long")
		weightFloor = flag.Float64("weight-floor", 0.1, "coordinator: adaptive weight floor as a fraction of a worker's base weight (0..1]")
		replListen  = flag.String("repl-listen", "", "coordinator: publish the stream-session replication feed on this address (for standbys)")
		follow      = flag.String("follow", "", "coordinator: mirror a primary's replication feed from this address (standby mode)")
		resumeTTL   = flag.Duration("resume-ttl", 2*time.Minute, "coordinator: keep detached stream sessions resumable this long")

		announce       = flag.String("announce", "", "worker: heartbeat into this coordinator address to join its fleet")
		announceAddr   = flag.String("announce-addr", "", "worker: address to advertise in heartbeats (default: the bound -addr)")
		announceWeight = flag.Float64("announce-weight", 1, "worker: capacity weight to advertise")
		beatEvery      = flag.Duration("heartbeat", 500*time.Millisecond, "worker: heartbeat interval for -announce")

		maxConns  = flag.Int("max-conns", 0, "max simultaneous client connections (0 = unlimited)")
		perConn   = flag.Int("per-conn-inflight", 0, "per-connection in-flight request cap (0 = unlimited)")
		idle      = flag.Duration("idle-timeout", 2*time.Minute, "close connections idle this long (0 = never)")
		wtimeout  = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		maxLine   = flag.Int("max-line-bytes", 16<<20, "reject request lines longer than this")
		maxStream = flag.Int("max-streams", 64, "per-connection open streaming session cap (-1 = disable streaming)")
		streamTTL = flag.Duration("stream-ttl", 2*time.Minute, "expire streaming sessions idle this long (-1s = never)")
		opCap     = flag.Int("op-cap", 0, "per-tenant cap on registered user combine ops (0 = default)")
		chaosSpec = flag.String("chaos", "", "arm fault points: name:prob[:duration],... (see package doc)")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection RNG seed")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank
			// import; nothing else registers on it here.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "scansd: pprof:", err)
			}
		}()
		fmt.Println("scansd pprof on http://" + *pprofAddr + "/debug/pprof/")
	}

	faults, err := parseChaos(*chaosSpec, *chaosSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scansd:", err)
		os.Exit(1)
	}

	ncfg := serve.NetConfig{
		MaxLineBytes:    *maxLine,
		MaxConns:        *maxConns,
		PerConnInflight: *perConn,
		IdleTimeout:     *idle,
		WriteTimeout:    *wtimeout,
		MaxStreams:      *maxStream,
		StreamIdleTTL:   *streamTTL,
		Faults:          faults,
	}

	var (
		ns    *serve.NetServer
		coord *cluster.Coordinator
	)
	if *coordinator {
		addrs := splitNonEmpty(*workerAddrs)
		if len(addrs) == 0 && *announce == "" && *follow == "" {
			fmt.Fprintln(os.Stderr, "scansd: -coordinator with no -workers serves nothing until workers -announce themselves")
		}
		ws, err := parseWeights(*weights, len(addrs))
		if err != nil {
			fmt.Fprintln(os.Stderr, "scansd:", err)
			os.Exit(1)
		}
		coord, err = cluster.New(cluster.Config{
			Workers:       addrs,
			Weights:       ws,
			MinShardElems: *minShard,
			MaxPieceElems: *maxPiece,
			MaxLineBytes:  *maxLine,
			Proto:         *workerProto,
			Retry:         serve.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond},
			HedgeAfter:    *hedgeAfter,
			EjectAfter:    *ejectAfter,
			ProbeInterval: *probeEvery,
			HeartbeatTTL:  *beatTTL,
			WeightFloor:   *weightFloor,
			ReplListen:    *replListen,
			Follow:        *follow,
			ResumeTTL:     *resumeTTL,
			OpCap:         *opCap,
			Faults:        faults,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "scansd:", err)
			os.Exit(1)
		}
		ns, err = serve.ListenBackend(*addr, coord, ncfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scansd:", err)
			os.Exit(1)
		}
		fmt.Printf("scansd coordinator listening on %s, sharding over %d workers %v\n", ns.Addr(), len(addrs), addrs)
		if ra := coord.ReplAddr(); ra != "" {
			fmt.Println("scansd coordinator replicating sessions on", ra)
		}
		if *follow != "" {
			fmt.Println("scansd coordinator standing by for", *follow)
		}
	} else {
		ns, err = serve.ListenNet(*addr, serve.Config{
			MaxBatchElems:    *maxElems,
			MaxBatchRequests: *maxReqs,
			MaxWait:          *maxWait,
			QueueLimit:       *queue,
			QueueAgeLimit:    *queueAge,
			Executors:        *executors,
			OpCap:            *opCap,
			Faults:           faults,
		}, ncfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scansd:", err)
			os.Exit(1)
		}
		fmt.Println("scansd listening on", ns.Addr())
	}
	if faults != nil {
		fmt.Println("scansd: CHAOS ARMED", faults)
	}

	var beatQuit chan struct{}
	if *announce != "" && !*coordinator {
		advertised := *announceAddr
		if advertised == "" {
			advertised = ns.Addr()
		}
		beatQuit = make(chan struct{})
		go announceLoop(*announce, advertised, *announceWeight, *maxLine, *beatEvery, beatQuit)
		fmt.Printf("scansd announcing %s to coordinator %s every %v\n", advertised, *announce, *beatEvery)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("scansd: draining...")
	if beatQuit != nil {
		close(beatQuit)
	}
	ns.Close()
	if coord != nil {
		fmt.Println("scansd coordinator:", coord.Stats())
	} else {
		fmt.Println("scansd:", ns.Stats())
	}
	if faults != nil {
		fmt.Println("scansd:", faults)
	}
}

// announceLoop heartbeats this worker into a coordinator until quit:
// dial (lazily, redialing after any error), send one heartbeat per
// interval. The coordinator admits us on the first beat it hears and
// ejects us -heartbeat-ttl after the last, so joining and leaving the
// fleet are both just this loop's lifecycle.
func announceLoop(coordAddr, selfAddr string, weight float64, maxLine int, every time.Duration, quit chan struct{}) {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	var cli *serve.Client
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		if cli == nil {
			c, err := serve.DialMaxLineProto(coordAddr, 0, serve.ProtoBin)
			if err == nil {
				cli = c
			}
		}
		if cli != nil {
			ctx, cancel := context.WithTimeout(context.Background(), every)
			err := cli.Heartbeat(ctx, selfAddr, weight, serve.ProtoBin, maxLine)
			cancel()
			if err != nil {
				cli.Close()
				cli = nil
			}
		}
		select {
		case <-quit:
			return
		case <-tick.C:
		}
	}
}

// splitNonEmpty splits a comma-separated list, trimming whitespace and
// dropping empty entries.
func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWeights parses -worker-weights into n positive floats; empty
// means equal weights (nil).
func parseWeights(s string, n int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := splitNonEmpty(s)
	if len(parts) != n {
		return nil, fmt.Errorf("-worker-weights has %d entries for %d workers", len(parts), n)
	}
	ws := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(p, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -worker-weights entry %q (want a positive number)", p)
		}
		ws[i] = w
	}
	return ws, nil
}

// parseChaos builds a fault set from "name:prob[:duration],..." — nil
// when the spec is empty (chaos off, zero overhead).
func parseChaos(spec string, seed int64) (*fault.Set, error) {
	if spec == "" {
		return nil, nil
	}
	set := fault.New(seed)
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad -chaos entry %q (want name:prob[:duration])", entry)
		}
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("bad -chaos probability in %q", entry)
		}
		if len(parts) == 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("bad -chaos duration in %q: %v", entry, err)
			}
			set.ArmSleep(parts[0], prob, d)
		} else {
			set.Arm(parts[0], prob)
		}
	}
	return set, nil
}
