// Package simnet fakes idea/internal/simnet for analyzer fixtures.
package simnet

import "env"

// Cluster is the emulated runtime.
type Cluster struct{}

// CallAt runs fn on node nid's shard 0 at virtual time at.
func (c *Cluster) CallAt(at int64, nid int, fn func(env.Env)) {}
