// Command stpbcastd serves broadcasts as a service: a keyed pool of
// warm sessions behind a JSON-over-HTTP control plane (see
// internal/daemon for the endpoints and wire types).
//
// Usage:
//
//	stpbcastd                                # 127.0.0.1:7411
//	stpbcastd -addr 127.0.0.1:0              # random port, printed on stdout
//	stpbcastd -max-inflight 32 -tenant-quota 8 -max-sessions 4 -idle-ttl 2m
//	stpbcastd -no-pool                       # fresh session per request (baseline)
//
// The daemon prints "stpbcastd listening on http://ADDR" once the
// listener is up (scripts parse this to find a random port), drains
// gracefully on SIGINT/SIGTERM or POST /v1/shutdown — new requests get
// 503, in-flight ones finish, the pool closes — and then exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address (use :0 for a random port)")
	maxInFlight := flag.Int("max-inflight", 64, "max concurrently admitted broadcast requests (excess get 503)")
	tenantQuota := flag.Int("tenant-quota", 0, "max in-flight requests per tenant (0 = unlimited; excess get 429)")
	maxSessions := flag.Int("max-sessions", 8, "max warm sessions in the pool (LRU idle eviction at the cap)")
	idleTTL := flag.Duration("idle-ttl", 5*time.Minute, "evict sessions idle for this long (negative disables)")
	recvTimeout := flag.Duration("recv-timeout", 30*time.Second, "default per-receive deadline for requests that set none")
	noPool := flag.Bool("no-pool", false, "disable the session pool: open a fresh session per request (baseline mode)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "stpbcastd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	srv := daemon.New(daemon.Options{
		Pool: daemon.PoolOptions{
			MaxSessions: *maxSessions,
			IdleTTL:     *idleTTL,
			Disable:     *noPool,
		},
		MaxInFlight:        *maxInFlight,
		TenantQuota:        *tenantQuota,
		DefaultRecvTimeout: *recvTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpbcastd:", err)
		os.Exit(1)
	}
	fmt.Printf("stpbcastd listening on http://%s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("stpbcastd: %v, draining\n", s)
		srv.Shutdown()
		<-srv.Done()
	case <-srv.Done():
		// Drain requested over the API (POST /v1/shutdown).
		fmt.Println("stpbcastd: drained via /v1/shutdown")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "stpbcastd:", err)
		srv.Close()
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	fmt.Println("stpbcastd: bye")
}

// Connection limits of the control plane. A client must finish its
// request headers within readHeaderTimeout and keep them under
// maxHeaderBytes, and an idle keep-alive connection is closed after
// idleTimeout, so slow or silent clients cannot pin connections. Bodies
// and responses are not time-bounded: a request runs as long as its own
// receive deadlines allow.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps h in an http.Server with the connection limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}
