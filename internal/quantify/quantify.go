// Package quantify turns detected conflicts into a single consistency
// level in [0,1], implementing §4.4 of the paper: the TACT-style
// <numerical error, order error, staleness> triple, per-metric maxima,
// user weights, and Formula 1:
//
//	Consistency = (maxNum-numErr)/maxNum · wNum
//	            + (maxOrd-ordErr)/maxOrd · wOrd
//	            + (maxStale-stale)/maxStale · wStale
//
// It also hosts the application-casting hook of the set_consistency_metric
// API (§4.7): applications define what the three metrics mean in their own
// context by supplying a Caster.
package quantify

import (
	"fmt"
	"math"
	"sync"

	"idea/internal/id"
	"idea/internal/vv"
)

// Weights assigns the relative importance of the three triple members.
// They should sum to 1; Normalize fixes them up when they do not. A zero
// weight marks a metric as "not suitable for this application" (§4.7).
type Weights struct {
	Numerical float64
	Order     float64
	Staleness float64
}

// EqualWeights treats the three metrics equally (the paper's 0.33 each).
func EqualWeights() Weights { return Weights{1.0 / 3, 1.0 / 3, 1.0 / 3} }

// Normalize scales the weights to sum to 1. All-zero weights normalize to
// EqualWeights.
func (w Weights) Normalize() Weights {
	s := w.Numerical + w.Order + w.Staleness
	if s <= 0 {
		return EqualWeights()
	}
	return Weights{w.Numerical / s, w.Order / s, w.Staleness / s}
}

// Validate rejects negative weights.
func (w Weights) Validate() error {
	if w.Numerical < 0 || w.Order < 0 || w.Staleness < 0 {
		return fmt.Errorf("quantify: negative weight %+v", w)
	}
	return nil
}

// String implements fmt.Stringer.
func (w Weights) String() string {
	return fmt.Sprintf("weight<%.2f, %.2f, %.2f>", w.Numerical, w.Order, w.Staleness)
}

// Maxima are the predefined per-metric maximum errors of Formula 1 ("if in
// practice the order error is very unlikely to be larger than 10, then the
// maximum value for order error can be set as 10"). Errors are clamped to
// the maximum, so a level of 0 means "at or beyond every maximum".
type Maxima struct {
	Numerical float64
	Order     float64
	Staleness float64 // seconds
}

// DefaultMaxima is calibrated so that, with equal weights, one missed peer
// update costs about 1.1 % of the consistency level
// (TestQuickOneMissedUpdateCost). The Fig. 7 reproduction casts its own
// maxima, experiments.CalibratedMaxima, to land the paper's floors.
func DefaultMaxima() Maxima { return Maxima{Numerical: 30, Order: 30, Staleness: 30} }

// Validate rejects non-positive maxima.
func (m Maxima) Validate() error {
	if m.Numerical <= 0 || m.Order <= 0 || m.Staleness <= 0 {
		return fmt.Errorf("quantify: non-positive maxima %+v", m)
	}
	return nil
}

// Caster casts an application onto IDEA's consistency metric: given the
// raw metadata values of a replica and the reference state, plus the raw
// count/staleness information, it produces the triple in the application's
// own units. It is what set_consistency_metric installs (§4.7).
type Caster func(replica, ref *vv.Vector) vv.Triple

// DefaultCaster uses the paper's generic derivation (§4.4.1): numerical
// error is the metadata gap, order error is missing+extra updates,
// staleness is the reference-recency gap.
func DefaultCaster() Caster { return vv.TripleAgainst }

// Quantifier bundles maxima, weights, and the application caster; it is
// the object the detection module consults to score a conflict. One
// Quantifier is shared by every shard of a node, so the parameters a user
// can change at runtime — the weights (Complain ships new ones) and the
// metric maxima/caster (SetConsistencyMetric) — are guarded by an
// internal lock: mutate them through SetWeights/SetMetric, never by
// writing the fields of a running node. Direct field access remains for
// construction-time configuration and single-threaded tests; RefSel is
// config-time only.
type Quantifier struct {
	mu     sync.RWMutex
	Max    Maxima
	W      Weights
	Cast   Caster
	RefSel RefSelector
}

// New returns a Quantifier with the given maxima and weights and the
// default caster and reference selector.
func New(max Maxima, w Weights) *Quantifier {
	return &Quantifier{Max: max, W: w.Normalize(), Cast: DefaultCaster(), RefSel: HighestIDRef}
}

// Default returns the paper-calibrated Quantifier: default maxima, equal
// weights.
func Default() *Quantifier { return New(DefaultMaxima(), EqualWeights()) }

// SetWeights replaces the weights (the set_weight API). Safe against
// concurrent scoring on other shards.
func (q *Quantifier) SetWeights(w Weights) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.W = w.Normalize()
}

// Weights returns the current weights.
func (q *Quantifier) Weights() Weights {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.W
}

// SetMetric replaces the per-metric maxima and, when non-nil, the caster
// (the set_consistency_metric API). Safe against concurrent scoring.
func (q *Quantifier) SetMetric(m Maxima, c Caster) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Max = m
	if c != nil {
		q.Cast = c
	}
}

// Level applies Formula 1 to a triple. The result is clamped to [0,1].
func (q *Quantifier) Level(t vv.Triple) float64 {
	q.mu.RLock()
	max, w := q.Max, q.W
	q.mu.RUnlock()
	term := func(err, max, weight float64) float64 {
		if err < 0 {
			err = 0
		}
		if err > max {
			err = max
		}
		return (max - err) / max * weight
	}
	l := term(t.Numerical, max.Numerical, w.Numerical) +
		term(t.Order, max.Order, w.Order) +
		term(t.Staleness, max.Staleness, w.Staleness)
	return math.Min(1, math.Max(0, l))
}

// Score quantifies replica u against reference ref: it casts the conflict
// to a triple and applies Formula 1.
func (q *Quantifier) Score(u, ref *vv.Vector) (vv.Triple, float64) {
	q.mu.RLock()
	cast := q.Cast
	q.mu.RUnlock()
	t := cast(u, ref)
	return t, q.Level(t)
}

// RefSelector derives the reference consistent state from a set of
// conflicting candidates (§4.4.1 "there are several ways to derive the
// reference consistent state").
type RefSelector func(candidates map[id.NodeID]*vv.Vector) (id.NodeID, *vv.Vector)

// HighestIDRef picks the replica held by the highest node ID — the rule
// used throughout the paper's walkthrough and evaluation ("we simply
// choose the one with higher ID as the perfect image").
func HighestIDRef(candidates map[id.NodeID]*vv.Vector) (id.NodeID, *vv.Vector) {
	var best id.NodeID
	var bestV *vv.Vector
	for n, v := range candidates {
		if bestV == nil || n > best {
			best, bestV = n, v
		}
	}
	return best, bestV
}

// MostUpdatesRef picks the replica that has seen the most updates,
// breaking ties by node ID. An alternative selector exercised by the
// ablation benches.
func MostUpdatesRef(candidates map[id.NodeID]*vv.Vector) (id.NodeID, *vv.Vector) {
	var best id.NodeID
	var bestV *vv.Vector
	for n, v := range candidates {
		switch {
		case bestV == nil,
			v.TotalCount() > bestV.TotalCount(),
			v.TotalCount() == bestV.TotalCount() && n > best:
			best, bestV = n, v
		}
	}
	return best, bestV
}

// MergedRef synthesizes a reference that dominates every candidate (the
// "learn from everyone" option); the returned node ID is the highest
// contributor, used for metadata attribution.
func MergedRef(candidates map[id.NodeID]*vv.Vector) (id.NodeID, *vv.Vector) {
	n, v := HighestIDRef(candidates)
	if v == nil {
		return n, nil
	}
	merged := v.Clone()
	for _, c := range candidates {
		merged = vv.Merge(merged, c)
	}
	return n, merged
}
