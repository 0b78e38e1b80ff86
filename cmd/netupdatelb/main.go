// Command netupdatelb is the sharding router for a fleet of netupdated
// replicas: tenants are placed on a consistent-hash ring keyed by their
// spec fingerprint, streaming traffic is proxied to each tenant's owner,
// and ring changes (scale-up, drain) migrate affected tenants with their
// session snapshots, so warm state moves instead of being re-earned.
//
//	netupdatelb -addr :9090 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//
// The router speaks the replica API unchanged — clients point at the
// router exactly as they would at a single netupdated — plus the ring
// administration surface:
//
//	GET    /lb/replicas            ring membership and tenant placement
//	POST   /lb/replicas            add a replica {"url": ...}; rebalances
//	DELETE /lb/replicas?url=U      drain U's tenants away, then remove it
//	GET    /metrics                router counters (Prometheus text)
//
// Clients that prefer to skip the proxy hop can shard themselves:
// netupdate -stream -connect URL,URL,... builds the same ring from the
// same replica list and talks straight to its tenant's owner.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"netupdate/internal/lb"
	"netupdate/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "listen address")
		replicas = flag.String("replicas", "", "comma-separated netupdated base URLs forming the initial ring")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6061); empty disables profiling")
	)
	flag.Parse()
	if err := run(*addr, *replicas, *pprof); err != nil {
		fmt.Fprintf(os.Stderr, "netupdatelb: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, replicas, pprofAddr string) error {
	urls := lb.ParseReplicas(replicas)
	if len(urls) == 0 {
		return fmt.Errorf("no replicas: pass -replicas http://host:port[,...]")
	}
	router, err := lb.New(urls)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "netupdatelb: pprof on %s\n", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, obs.PprofHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "netupdatelb: pprof: %v\n", err)
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "netupdatelb: routing %d replicas on %s\n", len(urls), addr)
	return http.ListenAndServe(addr, router.Handler())
}
