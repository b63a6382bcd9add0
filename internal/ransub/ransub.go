// Package ransub implements the RanSub-style random-subset dissemination
// protocol (Kostić et al. [9]) that IDEA leverages to construct the
// per-file "temperature overlay" (§4.1): the top layer containing the
// nodes that update a file sufficiently frequently and/or recently.
//
// Nodes are arranged in a static binary tree. Each epoch, a Collect wave
// flows leaves→root carrying uniform random samples of {node, temperature}
// candidates, and a Distribute wave flows root→leaves handing every node a
// random subset of the whole network's candidates. Nodes with temperature
// at or above the hot threshold are considered members of the file's top
// layer; everyone else remains in the bottom layer.
package ransub

import (
	"sort"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/wire"
)

// Config parameterizes the agent.
type Config struct {
	// Epoch is the collect/distribute period; zero means 10 s.
	Epoch time.Duration
}

const (
	// sampleSize bounds the random subset carried per message.
	sampleSize = 8
	// hotThreshold is the temperature at or above which a node counts as
	// an active writer.
	hotThreshold = 0.5
	// decay multiplies temperatures once per epoch. Recency therefore
	// dominates: a writer that stops updating cools below threshold
	// within a couple of epochs.
	decay = 0.5
	// ttlEpochs is how many epochs a learned candidate survives without a
	// fresher advertisement from its origin. It must comfortably exceed
	// the tree depth, since collect waves climb one level per epoch and a
	// candidate's origin epoch ages in transit.
	ttlEpochs = 8
)

func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = 10 * time.Second
	}
	return c
}

const timerEpoch = "ransub.epoch"

// learned is a remembered candidate: the temperature its origin last
// advertised and the origin's epoch at advertisement time.
type learned struct {
	temp  float64
	epoch int
}

// Agent is the per-node RanSub participant. It is driven by the node's
// event loop: the owner must forward Start, matching Recv messages, and
// timers with the "ransub." prefix. RanSub itself is node-global work and
// runs on shard 0 under a sharded runtime, but its temperature/candidate
// state is read (Hot/HotSet, via the overlay) and bumped (RecordUpdate,
// on every write) from per-file shards, so the state sits behind a
// mutex; sections are tiny and uncontended at protocol rates.
type Agent struct {
	cfg   Config
	self  id.NodeID
	all   []id.NodeID // sorted static membership
	index int         // self's position in all

	mu    sync.Mutex
	epoch int
	temps map[id.FileID]float64 // own temperatures
	// pending collect samples from children for the current epoch
	pending map[id.FileID]map[id.NodeID][]wire.Candidate
	// candidates learned from distribute/collect waves
	known map[id.FileID]map[id.NodeID]learned
}

// New creates an agent for node self among the static membership all.
func New(cfg Config, self id.NodeID, all []id.NodeID) *Agent {
	sorted := append([]id.NodeID(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := -1
	for i, n := range sorted {
		if n == self {
			idx = i
		}
	}
	if idx < 0 {
		panic("ransub: self not in membership")
	}
	return &Agent{
		cfg:     cfg.withDefaults(),
		self:    self,
		all:     sorted,
		index:   idx,
		temps:   make(map[id.FileID]float64),
		pending: make(map[id.FileID]map[id.NodeID][]wire.Candidate),
		known:   make(map[id.FileID]map[id.NodeID]learned),
	}
}

// SetAll replaces the membership the dissemination tree is built over —
// the dynamic-membership wiring: joiners enter the tree, dead nodes leave
// it. A list that does not contain self is ignored (the view always holds
// the local node). The collect/distribute waves already tolerate loss and
// cold subtrees, so a tree that changes between epochs needs no special
// handling: the next wave simply climbs the new tree.
func (a *Agent) SetAll(all []id.NodeID) {
	sorted := append([]id.NodeID(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := -1
	for i, n := range sorted {
		if n == a.self {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	a.mu.Lock()
	a.all, a.index = sorted, idx
	a.mu.Unlock()
}

// tree helpers over the sorted membership
func (a *Agent) parent() (id.NodeID, bool) {
	if a.index == 0 {
		return 0, false
	}
	return a.all[(a.index-1)/2], true
}

func (a *Agent) children() []id.NodeID {
	var out []id.NodeID
	for _, c := range []int{2*a.index + 1, 2*a.index + 2} {
		if c < len(a.all) {
			out = append(out, a.all[c])
		}
	}
	return out
}

// Start arms the epoch timer.
func (a *Agent) Start(e env.Env) {
	e.After(a.cfg.Epoch, timerEpoch, nil)
}

// RecordUpdate bumps the local temperature for file: +1 per update, the
// frequency/recency signal of §4.1.
func (a *Agent) RecordUpdate(file id.FileID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.temps[file]++
}

// Temperature returns the node's own temperature for file.
func (a *Agent) Temperature(file id.FileID) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.temps[file]
}

// Hot reports whether node n is currently believed to be an active writer
// of file (self included).
func (a *Agent) Hot(file id.FileID, n id.NodeID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n == a.self {
		return a.temps[file] >= hotThreshold
	}
	l, ok := a.known[file][n]
	return ok && l.temp >= hotThreshold
}

// HotSet returns the sorted set of nodes this agent believes form the
// file's top layer (temperature overlay), always including itself when
// hot.
func (a *Agent) HotSet(file id.FileID) []id.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []id.NodeID
	if a.temps[file] >= hotThreshold {
		out = append(out, a.self)
	}
	for n, l := range a.known[file] {
		if n != a.self && l.temp >= hotThreshold {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KnownFiles returns every file the agent has a temperature or candidate
// for, sorted.
func (a *Agent) KnownFiles() []id.FileID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.knownFiles()
}

func (a *Agent) knownFiles() []id.FileID {
	set := make(map[id.FileID]struct{})
	for f := range a.temps {
		set[f] = struct{}{}
	}
	for f := range a.known {
		set[f] = struct{}{}
	}
	out := make([]id.FileID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Timer handles ransub timers; it returns false for keys it does not own.
// Every epoch each node pushes up a collect for every file it knows,
// merging its own temperature, buffered child samples, and previously
// learned candidates. The wave therefore climbs one tree level per epoch
// and tolerates message loss and cold subtrees.
func (a *Agent) Timer(e env.Env, key string, _ any) bool {
	if key != timerEpoch {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epoch++
	a.expire()
	for _, f := range a.knownFiles() {
		a.sendCollect(e, f)
	}
	a.pending = make(map[id.FileID]map[id.NodeID][]wire.Candidate)
	a.decay()
	e.After(a.cfg.Epoch, timerEpoch, nil)
	return true
}

func (a *Agent) expire() {
	for f, m := range a.known {
		for n, l := range m {
			if a.epoch-l.epoch > ttlEpochs {
				delete(m, n)
			}
		}
		if len(m) == 0 {
			delete(a.known, f)
		}
	}
}

func (a *Agent) decay() {
	for f, t := range a.temps {
		t *= decay
		if t < 0.01 {
			delete(a.temps, f)
		} else {
			a.temps[f] = t
		}
	}
}

func (a *Agent) sample(e env.Env, cands []wire.Candidate) []wire.Candidate {
	if len(cands) <= sampleSize {
		return cands
	}
	// Uniform random subset (partial Fisher–Yates).
	out := append([]wire.Candidate(nil), cands...)
	for i := 0; i < sampleSize; i++ {
		j := i + e.Rand().Intn(len(out)-i)
		out[i], out[j] = out[j], out[i]
	}
	return out[:sampleSize]
}

// localCandidates merges the node's own temperature (stamped with its
// current epoch), buffered child samples, and learned candidates. Origin
// epochs are preserved: relaying never refreshes a candidate, so a cooled
// or silent writer ages out everywhere.
func (a *Agent) localCandidates(file id.FileID) []wire.Candidate {
	merged := make(map[id.NodeID]learned)
	if t := a.temps[file]; t > 0 {
		merged[a.self] = learned{temp: t, epoch: a.epoch}
	}
	better := func(c wire.Candidate) {
		cur, ok := merged[c.Node]
		if !ok || c.Epoch > cur.epoch || (c.Epoch == cur.epoch && c.Temp > cur.temp) {
			merged[c.Node] = learned{temp: c.Temp, epoch: c.Epoch}
		}
	}
	for _, sampleSet := range a.pending[file] {
		for _, c := range sampleSet {
			better(c)
		}
	}
	for n, l := range a.known[file] {
		if n != a.self {
			better(wire.Candidate{Node: n, Temp: l.temp, Epoch: l.epoch})
		}
	}
	out := make([]wire.Candidate, 0, len(merged))
	for n, l := range merged {
		out = append(out, wire.Candidate{Node: n, Temp: l.temp, Epoch: l.epoch})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (a *Agent) sendCollect(e env.Env, file id.FileID) {
	cands := a.localCandidates(file)
	a.learn(file, cands)
	parent, ok := a.parent()
	if !ok {
		// Root: the wave turns around into a distribute.
		a.distribute(e, file, cands)
		return
	}
	e.Send(parent, wire.RansubCollect{File: file, Epoch: a.epoch, Sample: a.sample(e, cands)})
}

func (a *Agent) distribute(e env.Env, file id.FileID, cands []wire.Candidate) {
	a.learn(file, cands)
	for _, c := range a.children() {
		e.Send(c, wire.RansubDistribute{File: file, Epoch: a.epoch, Sample: a.sample(e, cands)})
	}
}

func (a *Agent) learn(file id.FileID, cands []wire.Candidate) {
	if len(cands) == 0 {
		return
	}
	m, ok := a.known[file]
	if !ok {
		m = make(map[id.NodeID]learned)
		a.known[file] = m
	}
	for _, c := range cands {
		cur, ok := m[c.Node]
		if !ok || c.Epoch > cur.epoch || (c.Epoch == cur.epoch && c.Temp > cur.temp) {
			m[c.Node] = learned{temp: c.Temp, epoch: c.Epoch}
		}
	}
}

// HandleCollect buffers a child's collect sample; it is merged into this
// node's own collect at the next epoch tick.
func (a *Agent) HandleCollect(_ env.Env, from id.NodeID, m wire.RansubCollect) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pending[m.File]
	if !ok {
		p = make(map[id.NodeID][]wire.Candidate)
		a.pending[m.File] = p
	}
	p[from] = m.Sample
	a.learn(m.File, m.Sample)
}

// HandleDistribute learns the epoch's global sample and forwards a random
// subset to the children.
func (a *Agent) HandleDistribute(e env.Env, _ id.NodeID, m wire.RansubDistribute) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if m.Epoch > a.epoch {
		a.epoch = m.Epoch
	}
	a.learn(m.File, m.Sample)
	for _, c := range a.children() {
		e.Send(c, wire.RansubDistribute{File: m.File, Epoch: m.Epoch, Sample: a.sample(e, m.Sample)})
	}
}

// Recv dispatches ransub messages; it returns false for other kinds.
func (a *Agent) Recv(e env.Env, from id.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case wire.RansubCollect:
		a.HandleCollect(e, from, m)
	case wire.RansubDistribute:
		a.HandleDistribute(e, from, m)
	default:
		return false
	}
	return true
}
