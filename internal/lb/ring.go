package lb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the per-replica point count of every ring. More
// points smooth the key distribution at the cost of memory proportional
// to replicas times points.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over replica addresses: tenant ids map
// to replicas so that adding or removing one replica moves only ~1/N of
// the tenants, which is what keeps migration traffic proportional to the
// topology change rather than the fleet size. The router (cmd/netupdatelb)
// and the stream client (netupdate -connect with several URLs) build the
// same ring from the same replica list, so server-side and client-side
// sharding agree on placement without coordination. Ring is not
// concurrency-safe; callers hold their own lock.
type Ring struct {
	replicas map[string]bool
	points   []ringPoint // sorted by hash, ascending
}

type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing builds the ring over replicas, as ParseReplicas read them.
func NewRing(replicas ...string) *Ring {
	r := &Ring{replicas: map[string]bool{}}
	for _, rep := range replicas {
		r.Add(rep)
	}
	return r
}

// ParseReplicas reads the comma-separated replica base URLs of
// netupdatelb -replicas and netupdate -connect, trimming spaces and
// trailing slashes and dropping empty entries.
func ParseReplicas(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// ringHash is the ring's stable hash: the first 8 bytes of SHA-256, so
// independently-built rings (router and clients) place keys identically.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a replica's virtual nodes. Adding a present replica is a
// no-op.
func (r *Ring) Add(replica string) {
	if r.replicas[replica] {
		return
	}
	r.replicas[replica] = true
	for i := 0; i < DefaultVirtualNodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:    ringHash(fmt.Sprintf("%s#%d", replica, i)),
			replica: replica,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a replica's virtual nodes. Removing an absent replica
// is a no-op.
func (r *Ring) Remove(replica string) {
	if !r.replicas[replica] {
		return
	}
	delete(r.replicas, replica)
	kept := r.points[:0]
	for _, pt := range r.points {
		if pt.replica != replica {
			kept = append(kept, pt)
		}
	}
	r.points = kept
}

// Owner maps a key (a tenant id) to its replica: the first virtual node
// clockwise from the key's hash. The second return is false on an empty
// ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].replica, true
}

// Replicas lists the ring members in sorted order.
func (r *Ring) Replicas() []string {
	out := make([]string, 0, len(r.replicas))
	for rep := range r.replicas {
		out = append(out, rep)
	}
	sort.Strings(out)
	return out
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.replicas) }
