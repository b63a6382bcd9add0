package core

import (
	"fmt"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/resolve"
)

// This file implements the developer interface of Table 1 (§4.7). Method
// names follow Go convention; the paper's API names are noted on each.

// SetConsistencyMetric casts the application onto IDEA's consistency
// metric (paper: set_consistency_metric(a, b, c)): the three parameters
// are the per-metric maximum errors of Formula 1, defining the granularity
// of the application's objects and what counts as full inconsistency.
// An optional caster redefines how raw replica state maps to the triple.
func (n *Node) SetConsistencyMetric(maxNumerical, maxOrder, maxStaleness float64, caster quantify.Caster) error {
	m := quantify.Maxima{Numerical: maxNumerical, Order: maxOrder, Staleness: maxStaleness}
	if err := m.Validate(); err != nil {
		return err
	}
	n.quant.SetMetric(m, caster)
	return nil
}

// SetWeight sets the weights of the three metrics for calculating the
// consistency level (paper: set_weight(a, b, c)). A zero weight marks a
// metric as unsuitable for the application, e.g. weight<0.4, 0, 0.6>.
func (n *Node) SetWeight(numerical, order, staleness float64) error {
	w := quantify.Weights{Numerical: numerical, Order: order, Staleness: staleness}
	if err := w.Validate(); err != nil {
		return err
	}
	n.quant.SetWeights(w)
	return nil
}

// SetResolution selects the inconsistency-resolution policy (paper:
// set_resolution(r)); r follows §4.5.1's numbering: 1 invalidate-both,
// 2 highest-ID, 3 priority-based, 4 merge-all. The policy is node-global:
// it applies to every shard's resolver. Configure it before the node
// starts handling traffic.
func (n *Node) SetResolution(r int) error {
	p := resolve.Policy(r)
	switch p {
	case resolve.InvalidateBoth, resolve.HighestID, resolve.PriorityBased, resolve.MergeAll:
		for _, sh := range n.shards {
			sh.res.SetPolicy(p)
		}
		return nil
	}
	return fmt.Errorf("core: unknown resolution policy %d", r)
}

// SetHint sets the initial hint level L1 for a hint-based file (paper:
// set_hint(h)). A valid h is in [0, 1]: 0 declares the file not
// hint-based, 1 tolerates no inconsistency at all. Setting a hint also
// switches the file to HintBased mode.
func (n *Node) SetHint(file id.FileID, h float64) error {
	if h < 0 || h > 1 {
		return fmt.Errorf("core: hint %g outside [0, 1]", h)
	}
	fs := n.file(file)
	fs.hint = h
	if h > 0 {
		fs.mode = HintBased
	}
	// A raised hint supersedes anything learned below it; a lowered
	// hint relaxes the learned level too (the user explicitly asked
	// for less).
	if fs.learned < h || fs.learned > h {
		fs.learned = 0
	}
	return nil
}

// Hint returns the file's current hint level.
func (n *Node) Hint(file id.FileID) float64 { return n.file(file).hint }

// DemandActiveResolution explicitly asks IDEA to actively resolve the
// file's inconsistency through the configured policy (paper:
// demand_active_resolution()). In OnDemand mode this doubles as a
// complaint: IDEA learns the new desired level so the user is not
// annoyed again (§2: "L1 + Δ will then become the new desired
// consistency level").
func (n *Node) DemandActiveResolution(e env.Env, file id.FileID) {
	fs := n.file(file)
	if fs.mode == OnDemand {
		bump := fs.last + hintDelta
		if bump > 0.99 {
			bump = 0.99
		}
		if bump > fs.learned {
			fs.learned = bump
		}
	}
	n.shardOf(file).res.RequestActive(e, file)
}

// SetBackgroundFreq sets the period of background inconsistency
// resolution for file (paper: set_background_freq(f)); zero disables it.
func (n *Node) SetBackgroundFreq(e env.Env, file id.FileID, period time.Duration) {
	n.shardOf(file).res.SetBackgroundFreq(e, file, period)
}

// BackgroundFreq returns the current background period (zero = disabled).
func (n *Node) BackgroundFreq(file id.FileID) time.Duration {
	return n.shardOf(file).res.BackgroundFreq(file)
}
