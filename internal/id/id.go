// Package id defines the small identifier types shared by every IDEA
// subsystem: node identifiers, file (shared object) identifiers, and user
// priorities. Keeping them in a leaf package avoids import cycles between
// the version-vector, wire, and runtime layers.
package id

import "strconv"

// NodeID identifies a replica/participant. The paper assigns each node a
// randomly chosen ID (e.g. a hash of its IP address) so that the
// "highest-ID wins" resolution policy treats members fairly (§4.5.1).
type NodeID int64

// Nil is the zero NodeID, used to mean "no node".
const Nil NodeID = 0

// String implements fmt.Stringer: "n" followed by the decimal ID.
func (n NodeID) String() string {
	var buf [24]byte
	return string(n.Append(buf[:0]))
}

// Append appends the String form of n to b.
func (n NodeID) Append(b []byte) []byte {
	return strconv.AppendInt(append(b, 'n'), int64(n), 10)
}

// FileID names a shared file/object. Each file has its own independent
// top layer ("temperature overlay", §4.1); a virtual white board is one
// file, an airline seat inventory is another.
type FileID string

// String implements fmt.Stringer.
func (f FileID) String() string { return string(f) }

// Hash returns a stable FNV-1a hash of the file name. It is the one hash
// every layer derives file partitioning from — the runtime's shard
// routing (env.ShardOf) and the store's lock striping both reduce to it —
// so a file always lands in the same serialization domain no matter which
// layer asks.
func (f FileID) Hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(f); i++ {
		h ^= uint32(f[i])
		h *= prime32
	}
	return h
}

// Priority ranks users for the priority-based resolution policy (§4.5.1).
// Higher values win conflicts.
type Priority int

// Common priorities. Applications may define their own levels; only the
// ordering matters.
const (
	PriorityOrdinary   Priority = 0
	PrioritySupervisor Priority = 100
)
