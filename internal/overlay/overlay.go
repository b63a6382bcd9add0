// Package overlay exposes the two-layer (top/bottom) infrastructure of
// §4.1 as a membership view: for every shared file there is a small top
// layer — the "temperature overlay" of nodes updating the file frequently
// and/or recently — while the bottom layer always covers all nodes.
// Top layers are per-file and independent: a node participating in several
// white boards sits in several unrelated top layers.
//
// Two implementations are provided: Static pins the top layer per file
// (the evaluation's warmed-up four-writer configuration) and Dynamic
// derives it live from a ransub.Agent.
package overlay

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"idea/internal/id"
	"idea/internal/ransub"
)

// Membership answers layer queries for one node's view of the system.
// The slices All and Top return are read-only: an implementation may lend
// its own storage.
type Membership interface {
	// All returns every node in the system (the bottom layer), sorted.
	All() []id.NodeID
	// Top returns the believed top layer for file, sorted.
	Top(file id.FileID) []id.NodeID
	// IsTop reports whether n is in file's top layer.
	IsTop(file id.FileID, n id.NodeID) bool
}

// TopPeers returns m's top layer for file excluding self — the set a
// detection or resolution round must contact — in a fresh slice, or nil
// when the layer holds nobody but self, so a lone writer's costs nothing.
func TopPeers(m Membership, file id.FileID, self id.NodeID) []id.NodeID {
	top := m.Top(file)
	peers := 0
	for _, n := range top {
		if n != self {
			peers++
		}
	}
	if peers == 0 {
		return nil
	}
	out := make([]id.NodeID, 0, peers)
	for _, n := range top {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}

// BottomPeers returns every node except self.
func BottomPeers(m Membership, self id.NodeID) []id.NodeID {
	var out []id.NodeID
	for _, n := range m.All() {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}

// Static is a fixed membership view. Reads come from every shard of a
// sharded node, on every write, while SetTop may re-pin a layer, so the
// layers sit behind an atomic pointer that SetTop replaces copy-on-write:
// a read takes no lock, and nothing it loaded ever changes.
type Static struct {
	mu     sync.Mutex // serializes SetTop's copy-and-swap
	layers atomic.Pointer[staticLayers]
}

// staticLayers is one immutable version of a Static view.
type staticLayers struct {
	all []id.NodeID
	top map[id.FileID][]id.NodeID
}

// NewStatic builds a static view. Both the node list and each top layer
// are copied and sorted.
func NewStatic(all []id.NodeID, top map[id.FileID][]id.NodeID) *Static {
	l := &staticLayers{
		all: sortedCopy(all),
		top: make(map[id.FileID][]id.NodeID, len(top)),
	}
	for f, ns := range top {
		l.top[f] = sortedCopy(ns)
	}
	s := &Static{}
	s.layers.Store(l)
	return s
}

// SetTop replaces file's top layer. It copies the file-to-layer map, so it
// costs O(files); layers are re-pinned rarely and read on every write.
func (s *Static) SetTop(file id.FileID, top []id.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.layers.Load()
	l := &staticLayers{all: old.all, top: maps.Clone(old.top)}
	l.top[file] = sortedCopy(top)
	s.layers.Store(l)
}

// All implements Membership. It lends the view's own immutable slice.
func (s *Static) All() []id.NodeID { return s.layers.Load().all }

// Top implements Membership. It lends the view's own immutable layer:
// SetTop replaces a layer, never writes into one.
func (s *Static) Top(file id.FileID) []id.NodeID { return s.layers.Load().top[file] }

// IsTop implements Membership.
func (s *Static) IsTop(file id.FileID, n id.NodeID) bool {
	return slices.Contains(s.layers.Load().top[file], n)
}

// Dynamic derives the top layer from a RanSub agent's temperature
// knowledge, falling back to just the hot set it has learned so far.
type Dynamic struct {
	all   []id.NodeID
	agent *ransub.Agent
}

// NewDynamic wraps a ransub agent.
func NewDynamic(all []id.NodeID, agent *ransub.Agent) *Dynamic {
	return &Dynamic{all: sortedCopy(all), agent: agent}
}

// All implements Membership.
func (d *Dynamic) All() []id.NodeID { return append([]id.NodeID(nil), d.all...) }

// Top implements Membership.
func (d *Dynamic) Top(file id.FileID) []id.NodeID { return d.agent.HotSet(file) }

// IsTop implements Membership.
func (d *Dynamic) IsTop(file id.FileID, n id.NodeID) bool { return d.agent.Hot(file, n) }

// View is a live membership view fed by the dynamic-membership subsystem:
// the bottom layer (All) is the set of currently-alive nodes, mutated at
// runtime as members join, die, and rejoin, and the top layer is whatever
// the wrapped inner Membership believes minus anyone no longer alive —
// dead nodes leave every top layer the moment they are confirmed dead.
//
// With TopFallback set, a file whose inner top layer filters down to
// nothing beyond the local node falls back to the whole alive set: the
// bottom layer always covers all nodes (§4.1), so an empty overlay — a
// fresh joiner that has not yet learned any hot set — degrades to
// correct-but-wider probing instead of detection and resolution silently
// contacting nobody.
type View struct {
	mu       sync.RWMutex
	self     id.NodeID
	alive    map[id.NodeID]struct{}
	sorted   []id.NodeID // copy-on-write cache of the sorted alive set
	inner    Membership
	fallback bool
}

// NewView builds node self's live view over the initial member set.
// inner provides top-layer beliefs (a Static pin set or a ransub-backed
// Dynamic); nil means no per-file top layers beyond the fallback.
func NewView(self id.NodeID, initial []id.NodeID, inner Membership) *View {
	v := &View{self: self, alive: make(map[id.NodeID]struct{}, len(initial)), inner: inner}
	for _, n := range initial {
		v.alive[n] = struct{}{}
	}
	v.resort()
	return v
}

// resort rebuilds the sorted cache; callers hold v.mu (or own v
// exclusively). Gossip fan-out reads the view on every digest, so All
// must not pay a sort per call for a set that only changes on membership
// events.
func (v *View) resort() {
	out := make([]id.NodeID, 0, len(v.alive))
	for n := range v.alive {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	v.sorted = out
}

// SetTopFallback enables falling back to the full alive set when the
// inner top layer for a file holds nobody but (at most) the local node.
func (v *View) SetTopFallback(on bool) {
	v.mu.Lock()
	v.fallback = on
	v.mu.Unlock()
}

// Add marks a node alive (joiner entering the bottom layer).
func (v *View) Add(n id.NodeID) {
	v.mu.Lock()
	if _, ok := v.alive[n]; !ok {
		v.alive[n] = struct{}{}
		v.resort()
	}
	v.mu.Unlock()
}

// Remove evicts a dead (or departed) node from the view — and therefore
// from the bottom layer and every top layer at once.
func (v *View) Remove(n id.NodeID) {
	v.mu.Lock()
	if _, ok := v.alive[n]; ok {
		delete(v.alive, n)
		v.resort()
	}
	v.mu.Unlock()
}

// Contains reports whether n is currently in the view.
func (v *View) Contains(n id.NodeID) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.alive[n]
	return ok
}

// All implements Membership: the sorted alive set (a copy of the
// copy-on-write cache; no per-call sort).
func (v *View) All() []id.NodeID {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]id.NodeID(nil), v.sorted...)
}

// Top implements Membership: the inner belief filtered to alive nodes,
// falling back (when enabled) to the whole alive set if that leaves no
// peer besides the local node.
func (v *View) Top(file id.FileID) []id.NodeID {
	var inner []id.NodeID
	if v.inner != nil {
		inner = v.inner.Top(file)
	}
	v.mu.RLock()
	var out []id.NodeID
	peers := 0
	for _, n := range inner {
		if _, ok := v.alive[n]; ok {
			out = append(out, n)
			if n != v.self {
				peers++
			}
		}
	}
	fallback := v.fallback
	v.mu.RUnlock()
	if peers == 0 && fallback {
		return v.All()
	}
	return out
}

// IsTop implements Membership.
func (v *View) IsTop(file id.FileID, n id.NodeID) bool {
	if !v.Contains(n) {
		return false
	}
	if v.inner != nil && v.inner.IsTop(file, n) {
		return true
	}
	v.mu.RLock()
	fallback := v.fallback
	v.mu.RUnlock()
	if !fallback {
		return false
	}
	// Under fallback, n is top exactly when the filtered inner layer is
	// empty (Top degraded to everyone).
	for _, t := range v.Top(file) {
		if t == n {
			return true
		}
	}
	return false
}

func sortedCopy(ns []id.NodeID) []id.NodeID {
	out := append([]id.NodeID(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
