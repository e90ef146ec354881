package serve

import (
	"fmt"
	"sync"
	"time"

	"kronlab/internal/graph"
)

// FactorInfo is the registry's public record of one factor graph.
type FactorInfo struct {
	Hash       string    `json:"hash"`
	Name       string    `json:"name,omitempty"`
	N          int64     `json:"n"`
	Edges      int64     `json:"edges"`
	Arcs       int64     `json:"arcs"`
	SelfLoops  int64     `json:"self_loops"`
	Registered time.Time `json:"registered"`
}

// Registry is the content-addressed factor store: graphs are keyed by
// their canonical-serialization hash, so registering the same graph twice
// (under any name, in either wire format) is idempotent and every product
// A⊗B is identified by an unambiguous pair of hashes.
type Registry struct {
	mu     sync.RWMutex
	byHash map[string]*factorEntry
	order  []string // registration order, for stable listings
}

type factorEntry struct {
	info  FactorInfo
	g     *graph.Graph
	once  sync.Once
	plusI *graph.Graph // g+I, built on the first PlusI
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[string]*factorEntry)}
}

// Register adds g under its canonical hash and returns its record plus
// whether it was newly added. Re-registration keeps the first record (the
// graph is identical by construction) but fills in a name if the original
// registration had none.
func (r *Registry) Register(g *graph.Graph, name string) (FactorInfo, bool) {
	h := g.CanonicalHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byHash[h]; ok {
		if e.info.Name == "" && name != "" {
			e.info.Name = name
		}
		return e.info, false
	}
	e := &factorEntry{
		info: FactorInfo{
			Hash:       h,
			Name:       name,
			N:          g.NumVertices(),
			Edges:      g.NumEdges(),
			Arcs:       g.NumArcs(),
			SelfLoops:  g.NumSelfLoops(),
			Registered: time.Now().UTC(),
		},
		g: g,
	}
	r.byHash[h] = e
	r.order = append(r.order, h)
	return e.info, true
}

// Get returns the graph and record for an exact hash.
func (r *Registry) Get(hash string) (*graph.Graph, FactorInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byHash[hash]
	if !ok {
		return nil, FactorInfo{}, false
	}
	return e.g, e.info, true
}

// PlusI returns the +I form of the factor at an exact hash, built on the
// first ask and kept as long as the factor: every loops=1 stream reads it.
func (r *Registry) PlusI(hash string) *graph.Graph {
	r.mu.RLock()
	e := r.byHash[hash]
	r.mu.RUnlock()
	e.once.Do(func() { e.plusI = e.g.WithFullSelfLoops() })
	return e.plusI
}

// minPrefix is the shortest hash prefix Resolve accepts; shorter strings
// are too collision-prone to be useful addresses.
const minPrefix = 8

// Resolve maps a full hash, a unique hash prefix (≥ 8 hex chars), or a
// registered name to the full hash.
func (r *Registry) Resolve(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.byHash[key]; ok {
		return key, nil
	}
	var match string
	for h, e := range r.byHash {
		ok := e.info.Name != "" && e.info.Name == key
		if !ok && len(key) >= minPrefix && len(key) < len(h) && h[:len(key)] == key {
			ok = true
		}
		if ok {
			if match != "" {
				return "", fmt.Errorf("factor %q is ambiguous", key)
			}
			match = h
		}
	}
	if match == "" {
		return "", fmt.Errorf("factor %q not registered", key)
	}
	return match, nil
}

// List returns all records in registration order.
func (r *Registry) List() []FactorInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FactorInfo, 0, len(r.order))
	for _, h := range r.order {
		out = append(out, r.byHash[h].info)
	}
	return out
}

// Len returns the number of registered factors.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byHash)
}
