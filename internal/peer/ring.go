// Package peer federates N vbserve processes into one control plane:
// plan keys are placed on a consistent-hash ring, jobs are forwarded
// over HTTP to their key's owner, and a heartbeat failure detector
// (alive → suspect → dead, bounded timeouts, injected clocks under
// test) keeps routing away from peers that stopped answering. The
// robustness contract mirrors the data plane's: on owner death,
// forwarding fails over along the ring's successors with bounded
// hedged retries and deterministic backoff jitter; membership changes
// trigger warm-cache handoff in the VBPJ journal format; and a
// partitioned or lone peer degrades to local compilation instead of
// erroring.
package peer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per member: enough that a
// three-member ring splits key space within a few percent of evenly,
// small enough that ring construction is trivial.
const replicas = 64

// Ring is the consistent-hash placement of plan keys onto federation
// members. The ring itself is immutable — it always contains every
// configured member — and liveness is applied at lookup time through a
// predicate, so two peers with the same member list and the same view
// of who is alive route every key identically without ever exchanging
// ring state.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds the ring over the member list (order-insensitive:
// members are sorted and deduplicated, so every peer builds the same
// ring from any spelling of the same set).
func NewRing(members []string) (*Ring, error) {
	seen := map[string]bool{}
	var uniq []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("peer: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("peer: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	for _, m := range uniq {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// pointHash places virtual node v of a member on the ring: the first 8
// bytes of SHA-256 over "member#v", matching the key hash's digest so
// placement stays uniform.
func pointHash(member string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", member, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash places a plan key (already a hex SHA-256 string) on the
// ring by hashing it again — cheap, and independent of the key's own
// encoding.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members lists the configured members, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Successors walks the ring clockwise from key's position and returns
// the first n distinct members for which live() is true (nil live =
// every member). The first entry is the key's owner under the given
// liveness view; the rest are its failover order. Consistent-hash
// stability follows from the walk: a member's death only reroutes the
// keys it owned — every other key meets its old owner first.
func (r *Ring) Successors(key string, n int, live func(string) bool) []string {
	if n <= 0 {
		return nil
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		if live == nil || live(p.member) {
			out = append(out, p.member)
		}
	}
	return out
}

// Owner returns the key's owner under the given liveness view, or
// ok=false when no member is live.
func (r *Ring) Owner(key string, live func(string) bool) (string, bool) {
	s := r.Successors(key, 1, live)
	if len(s) == 0 {
		return "", false
	}
	return s[0], true
}
