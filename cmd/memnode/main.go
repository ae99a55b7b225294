// Command memnode runs the far-memory node daemon (§5.2): a passive
// server that registers memory regions and serves one-sided page reads
// and writes over TCP, in pipelined frames that a connection opens with
// a HELLO (internal/memnode/frame.go); a peer that opens with anything
// else is refused.
//
// -transport shm (or auto) additionally offers the file link to
// same-host clients: every region is a sealed memfd, the HELLO response
// advertises a unix socket over which a client attaches a region's file,
// and its page reads and writes become preads and pwrites of the file
// that this daemon never sees. Clients that stay on TCP (different host,
// older build, or -transport tcp here) are unaffected — shm only ever
// widens the choice. Requires Linux memfd; elsewhere "auto" degrades to
// TCP and "shm" fails at startup.
//
// -nodes N spawns N independent nodes in one process, listening on
// consecutive ports from -listen (or ephemeral ports when -listen ends
// in :0), each serving the full -capacity-mb — the one-command way to
// stand up a local shard set for the memcluster client
// (internal/memcluster, memnode-bench -cluster). Every node is a
// complete, isolated server; clustering (placement, replication,
// failover) lives entirely in the client.
//
// Usage:
//
//	memnode -listen :7170 -capacity-mb 4096 -transport shm
//	memnode -listen 127.0.0.1:7170 -capacity-mb 512 -nodes 6
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"

	"mage/internal/memnode"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7170", "listen address (with -nodes > 1: first of consecutive ports, or :0 for ephemeral)")
		capacity  = flag.Int64("capacity-mb", 1024, "served memory capacity in MiB (per node)")
		transport = flag.String("transport", "tcp", "data planes to offer: tcp, shm, or auto (shm = offer the file link to same-host clients, requires Linux memfd; auto = offer it when the platform supports it)")
		nodes     = flag.Int("nodes", 1, "independent nodes to run in this process (a local shard set for the cluster client)")
	)
	flag.Parse()
	if *nodes < 1 {
		log.Fatalf("memnode: -nodes must be >= 1, got %d", *nodes)
	}
	opts, err := serverOptions(*transport, memnode.ShmSupported)
	if err != nil {
		log.Fatalf("memnode: %v", err)
	}

	addrs, err := nodeAddrs(*listen, *nodes)
	if err != nil {
		log.Fatalf("memnode: %v", err)
	}
	var srvs []*memnode.Server
	for _, addr := range addrs {
		srv, err := memnode.NewServerOptions(addr, *capacity<<20, opts)
		if err != nil {
			for _, s := range srvs {
				_ = s.Close()
			}
			log.Fatalf("memnode: %v", err)
		}
		srvs = append(srvs, srv)
		// bench/ reads the address out of this line: it is followed by a
		// space and a parenthesis.
		if srv.ShmAddr() != "" {
			log.Printf("memnode: serving %d MiB on %s (tcp, shm attach %s)", *capacity, srv.Addr(), srv.ShmAddr())
		} else {
			log.Printf("memnode: serving %d MiB on %s (tcp)", *capacity, srv.Addr())
		}
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	log.Print("memnode: shutting down")
	for _, srv := range srvs {
		if err := srv.Close(); err != nil {
			log.Printf("memnode: close: %v", err)
		}
	}
}

// serverOptions maps -transport to the servers' options, given whether
// the platform has the file link: tcp offers TCP alone, shm requires the
// file link, and auto offers it where the platform has it.
func serverOptions(transport string, shmSupported bool) (memnode.ServerOptions, error) {
	switch transport {
	case "tcp":
		return memnode.ServerOptions{}, nil
	case "shm":
		if !shmSupported {
			return memnode.ServerOptions{}, errors.New("-transport shm requires Linux memfd support, which this platform lacks (use auto for best-effort)")
		}
		return memnode.ServerOptions{EnableShm: true}, nil
	case "auto":
		return memnode.ServerOptions{EnableShm: shmSupported}, nil
	}
	return memnode.ServerOptions{}, fmt.Errorf("-transport must be tcp, shm, or auto, got %q", transport)
}

// nodeAddrs expands a base listen address into n addresses: port 0
// repeats (the kernel assigns each), a concrete port counts upward.
func nodeAddrs(base string, n int) ([]string, error) {
	if n == 1 {
		return []string{base}, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("-listen %q with -nodes %d: %w", base, n, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-listen %q: bad port: %w", base, err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		p := port
		if port != 0 {
			p = port + i
			if p > 65535 {
				return nil, fmt.Errorf("-listen %q + %d nodes overflows the port range", base, n)
			}
		}
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return addrs, nil
}
