package server

import (
	"sync"
	"sync/atomic"

	"netcache"
)

// The parsed-spec table.
//
// Clients repeat their requests, so most POST /v1/run bodies a node sees
// are byte for byte ones it has parsed before. Decoding a body, validating
// the spec and keying it is a pure function of the body's bytes, so a node
// remembers the outcome per body and a repeat skips all three. Only specs
// that validated and keyed are remembered: an invalid body is parsed, and
// refused, every time.

const (
	// specTableEntries bounds the bodies a table remembers. A full table
	// drops one arbitrary entry for each new one.
	specTableEntries = 1024
	// specTableMaxBody is the largest body a table remembers; a longer one
	// is parsed on every request. The bounds cap a table's memory at about
	// 4.5 MiB: 4 MiB of body bytes plus a spec and a key per entry.
	specTableMaxBody = 4 << 10
)

// parsedSpec is a validated spec and its RunSpec.Key.
type parsedSpec struct {
	spec netcache.RunSpec
	key  string
}

// own returns p with a Sampling of its own, so no two requests, and no
// request and the table, share one.
func (p parsedSpec) own() parsedSpec {
	if p.spec.Sampling != nil {
		sm := *p.spec.Sampling
		p.spec.Sampling = &sm
	}
	return p
}

// specTable maps a request body to the spec it parses to. Safe for
// concurrent use; the zero value is ready. Every request reads it and only
// a miss writes, so readers share the lock.
type specTable struct {
	mu      sync.RWMutex
	entries map[string]parsedSpec

	hits, misses atomic.Uint64 // lookups that found a body, and that did not
}

// get returns the spec body parsed to, if the table remembers it. The spec
// is the caller's own: a remembered Sampling is copied, never shared.
func (t *specTable) get(body []byte) (parsedSpec, bool) {
	t.mu.RLock()
	p, ok := t.entries[string(body)]
	t.mu.RUnlock()
	if !ok {
		t.misses.Add(1)
		return parsedSpec{}, false
	}
	t.hits.Add(1)
	return p.own(), true
}

// put remembers that body parsed to p, unless body is longer than
// specTableMaxBody.
func (t *specTable) put(body []byte, p parsedSpec) {
	if len(body) > specTableMaxBody {
		return
	}
	p = p.own()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries = make(map[string]parsedSpec)
	}
	if _, ok := t.entries[string(body)]; !ok && len(t.entries) >= specTableEntries {
		for k := range t.entries {
			delete(t.entries, k)
			break
		}
	}
	t.entries[string(body)] = p
}
