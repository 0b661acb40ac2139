package jobs

import "sync"

// breaker is the per-plan-key circuit breaker behind panic isolation:
// a plan key whose jobs keep panicking the worker is quarantined, so a
// poison spec resubmitted in a loop costs one map lookup instead of a
// recompile-and-crash per submission. Counting is per key — one
// tenant's poison program cannot quarantine another program.
//
// The policy is deliberately simple: breakerThreshold consecutive
// panics on one key trip the breaker; a successful run of the key resets its
// count. A tripped key stays quarantined for the server's lifetime
// (the journal does not persist breaker state — a restart retries the
// key once, which is the desired give-it-another-chance behavior).
type breaker struct {
	mu      sync.Mutex
	counts  map[string]int
	tripped map[string]bool
}

// breakerThreshold is how many consecutive worker panics on one plan
// key quarantine that key.
const breakerThreshold = 2

// maxBreakerKeys bounds the tracked-key maps on a long-lived server; a
// hostile stream of unique poison keys evicts arbitrary old counts
// rather than growing without limit (each evicted key merely restarts
// its count from zero).
const maxBreakerKeys = 4096

func newBreaker() *breaker {
	return &breaker{
		counts:  map[string]int{},
		tripped: map[string]bool{},
	}
}

// note records one panic on key and reports whether this panic tripped
// the breaker (the transition, not the steady state — callers count
// trips from it).
func (b *breaker) note(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tripped[key] {
		return false
	}
	if len(b.counts) >= maxBreakerKeys {
		for k := range b.counts {
			if k != key {
				delete(b.counts, k)
				break
			}
		}
	}
	b.counts[key]++
	if b.counts[key] >= breakerThreshold {
		if len(b.tripped) >= maxBreakerKeys {
			for k := range b.tripped {
				if k != key {
					delete(b.tripped, k)
					break
				}
			}
		}
		b.tripped[key] = true
		delete(b.counts, key)
		return true
	}
	return false
}

// isTripped reports whether key is quarantined.
func (b *breaker) isTripped(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped[key]
}

// reset clears key's consecutive-panic count after a successful run.
func (b *breaker) reset(key string) {
	b.mu.Lock()
	delete(b.counts, key)
	b.mu.Unlock()
}
