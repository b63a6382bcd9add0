// P2P file system: the §7.3 scenario — IDEA as the consistency control of
// a peer-to-peer replicated file system (CFS/PAST-style). Twelve nodes
// form a consistent-hashing ring; each file lives on three replicas that
// double as its IDEA top layer. Clients on any node read and write any
// file; replica conflicts are detected within a round trip and resolved
// on demand.
//
//	go run ./examples/p2pfs
package main

import (
	"fmt"
	"time"

	"idea/internal/cluster"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/p2pfs"
	"idea/internal/simnet"
)

func main() {
	nodes := cluster.IDs(12)
	ring := p2pfs.NewRing(nodes, 16)
	c, fss := p2pfs.NewCluster(ring, 3, simnet.Config{Seed: 99, Latency: simnet.WAN{}})

	const file = id.FileID("/music/album.txt")
	rs := ring.ReplicaSet(file, 3)
	fmt.Printf("file %q lives on replicas %v\n", file, rs)

	// A non-replica client writes: the op routes to the primary.
	var client id.NodeID
	for _, nid := range nodes {
		if !fss[nid].Node().Membership().IsTop(file, nid) {
			client = nid
			break
		}
	}
	fss[client].OnWriteAck = func(_ env.Env, f id.FileID, key string) {
		fmt.Printf("client %v: write to %s acknowledged as %s\n", client, f, key)
	}
	c.CallAtFile(time.Second, client, file, func(e env.Env) {
		fss[client].Write(e, file, "put", []byte("track list v1"), 1)
	})
	c.RunFor(2 * time.Second)

	// Two replicas accept concurrent direct writes — the optimistic
	// default of P2P file systems — and IDEA flags the conflict.
	fmt.Println("\ntwo replicas accept concurrent writes:")
	c.CallAtFile(time.Second, rs[1], file, func(e env.Env) {
		fss[rs[1]].Write(e, file, "put", []byte("track list v2a"), 2)
	})
	c.CallAtFile(time.Second, rs[2], file, func(e env.Env) {
		fss[rs[2]].Write(e, file, "put", []byte("track list v2b"), 3)
	})
	c.RunFor(2 * time.Second)
	fmt.Printf("replica %v perceives level %.4f\n", rs[1], fss[rs[1]].Node().Level(file))

	fmt.Println("\nresolving on demand:")
	c.CallAtFile(time.Second, rs[0], file, func(e env.Env) {
		fss[rs[0]].Node().DemandActiveResolution(e, file)
	})
	c.RunFor(3 * time.Second)
	for _, r := range rs {
		log, _ := fss[r].Read(nil, file)
		fmt.Printf("replica %v holds %d updates, level %.4f\n",
			r, len(log), fss[r].Node().Level(file))
	}

	// A remote read from the client sees the resolved state.
	fss[client].OnRead = func(_ env.Env, res p2pfs.ReadResult) {
		fmt.Printf("\nclient %v remote read: %d updates at level %.4f\n",
			client, len(res.Updates), res.Level)
	}
	c.CallAtFile(time.Second, client, file, func(e env.Env) { fss[client].Read(e, file) })
	c.RunFor(2 * time.Second)

	fmt.Printf("\ntotal messages: %d\n", c.Stats().Total())
}
