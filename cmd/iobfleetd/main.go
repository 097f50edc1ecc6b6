package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"wiban/internal/obs"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9370", "HTTP listen address (host:port; port 0 picks a free port)")
		data     = flag.String("data", "iobfleetd.data", "directory for telemetry stores and sweep state sidecars")
		sweeps   = flag.Int("sweeps", 2, "sweeps running concurrently (a coordinator sweep occupies one slot while its shards run)")
		backends = flag.String("backends", "", "comma-separated base URLs sharded sweeps always dispatch to (static membership; dynamic backends register over POST /api/backends)")
		register = flag.String("register", "", "comma-separated coordinator base URLs this daemon registers with and heartbeats as a backend")
		hbEvery  = flag.Duration("heartbeat", 2*time.Second, "interval between registration heartbeats to each -register coordinator")
		expire   = flag.Duration("expire", defaultExpiry, "silence after which a dynamically registered backend stops being selected for shard dispatch")
		steal    = flag.Duration("steal-after", 15*time.Second, "committed-progress stall after which a shard is speculatively re-dispatched to another live backend (0 disables work-stealing)")
		retain   = flag.Int("retain", 0, "terminal (done/cancelled) sweeps to keep in -data; older stores and sidecars are garbage-collected (0 keeps everything)")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "iobfleetd: "+format+"\n", args...)
		os.Exit(code)
	}
	// baseURLs splits a comma-separated flag into normalized base URLs. A
	// bad entry is a usage error: exit 2 before listening.
	baseURLs := func(name, list string) (urls []string) {
		for _, raw := range strings.Split(list, ",") {
			if strings.TrimSpace(raw) == "" {
				continue
			}
			u, err := normalizeBackendURL(raw)
			if err != nil {
				fail(2, "-%s: %v", name, err)
			}
			urls = append(urls, u)
		}
		return urls
	}
	backendList, coordinators := baseURLs("backends", *backends), baseURLs("register", *register)

	reg := obs.NewRegistry()
	m, err := newManager(*data, *sweeps, reg, backendList)
	if err != nil {
		fail(1, "%v", err)
	}
	m.members.ttl = *expire
	m.stealAfter = *steal
	m.retain = *retain
	// Apply retention to whatever a previous process left behind before
	// serving it: a restarted daemon with a tighter -retain trims on boot.
	m.pruneRetained()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(1, "%v", err)
	}
	// The actual address, not the flag: with -listen :0 this line is how
	// scripts (and the exec-level tests) learn the port. Runners start only
	// now — a recovered coordinator sweep needs the daemon's own address
	// (its shards' seed-store URLs) before it may run.
	self := "http://" + ln.Addr().String()
	m.start(self)
	fmt.Printf("iobfleetd: listening on %s (data %s, %d sweep slots)\n", self, *data, *sweeps)

	// Register with each coordinator and keep heartbeating until drain;
	// the goroutines deregister on the way out so coordinators stop
	// selecting a backend that is about to exit.
	var hb sync.WaitGroup
	for _, c := range coordinators {
		hb.Add(1)
		go func(c string) {
			defer hb.Done()
			heartbeat(m.client, c, self, *hbEvery, m.drainCtx.Done())
		}(c)
	}

	srv := &http.Server{Handler: newMux(m, reg)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fail(1, "%v", err)
	case s := <-sig:
		fmt.Printf("iobfleetd: %v: draining (running sweeps checkpoint and park)\n", s)
	}

	// Drain before shutting down HTTP: running sweeps checkpoint and
	// publish their final "interrupted" progress event while clients can
	// still hear it. Then give open connections a moment and cut them —
	// a progress stream on a queued sweep would otherwise hold Shutdown
	// open forever.
	m.beginDrain()
	hb.Wait() // each heartbeat loop sends its goodbye DELETE before exiting
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	fmt.Println("iobfleetd: drained; restart with the same -data to resume")
}
