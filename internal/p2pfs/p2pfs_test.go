package p2pfs

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/vv"
	"idea/internal/wire"
)

func nodeIDs(n int) []id.NodeID {
	out := make([]id.NodeID, n)
	for i := range out {
		out[i] = id.NodeID(i + 1)
	}
	return out
}

func TestRingReplicaSetStableAndBalanced(t *testing.T) {
	ring := NewRing(nodeIDs(10), 32)
	rs1 := ring.ReplicaSet("fileA", 3)
	rs2 := ring.ReplicaSet("fileA", 3)
	if len(rs1) != 3 {
		t.Fatalf("replica set = %v", rs1)
	}
	for i := range rs1 {
		if rs1[i] != rs2[i] {
			t.Fatal("replica set not deterministic")
		}
	}
	// Distinct nodes.
	seen := map[id.NodeID]bool{}
	for _, n := range rs1 {
		if seen[n] {
			t.Fatal("duplicate replica")
		}
		seen[n] = true
	}
	// Balance: across many files every node should host something.
	hosts := map[id.NodeID]int{}
	for i := 0; i < 200; i++ {
		for _, n := range ring.ReplicaSet(id.FileID(string(rune('a'+i%26)))+id.FileID(string(rune('0'+i/26))), 3) {
			hosts[n]++
		}
	}
	if len(hosts) < 9 {
		t.Fatalf("only %d/10 nodes host replicas", len(hosts))
	}
}

func TestRingKLargerThanNodes(t *testing.T) {
	ring := NewRing(nodeIDs(2), 8)
	if got := ring.ReplicaSet("f", 5); len(got) != 2 {
		t.Fatalf("replica set = %v, want all 2 nodes", got)
	}
}

func TestMembershipMatchesRing(t *testing.T) {
	ring := NewRing(nodeIDs(8), 16)
	m := Membership{Ring: ring, K: 3}
	rs := ring.ReplicaSet("f", 3)
	top := m.Top("f")
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	for i := range rs {
		if top[i] != rs[i] {
			t.Fatal("membership disagrees with ring")
		}
	}
	if !m.IsTop("f", rs[0]) {
		t.Fatal("IsTop false for a replica")
	}
	if len(m.All()) != 8 {
		t.Fatal("All wrong")
	}
}

type fsCluster struct {
	c   *simnet.Cluster
	fs  map[id.NodeID]*FS
	ids []id.NodeID
}

func buildFS(t *testing.T, n, k int, seed int64) *fsCluster {
	t.Helper()
	ids := nodeIDs(n)
	ring := NewRing(ids, 16)
	c, fss := NewCluster(ring, k, simnet.Config{Seed: seed, Latency: simnet.Constant(30 * time.Millisecond)})
	return &fsCluster{c: c, fs: fss, ids: ids}
}

func TestLocalWriteOnReplica(t *testing.T) {
	cl := buildFS(t, 6, 3, 301)
	const file = id.FileID("doc")
	replica := cl.fs[cl.ids[0]].ReplicaSet(file)[0]
	cl.c.CallAt(time.Second, replica, func(e env.Env) {
		cl.fs[replica].Write(e, file, "put", []byte("x"), 0)
	})
	cl.c.RunFor(2 * time.Second)
	if cl.fs[replica].ServedWrites != 1 || cl.fs[replica].RoutedWrites != 0 {
		t.Fatalf("served=%d routed=%d", cl.fs[replica].ServedWrites, cl.fs[replica].RoutedWrites)
	}
	log, local := cl.fs[replica].Read(nil, file)
	if !local || len(log) != 1 {
		t.Fatalf("local read: %v/%d", local, len(log))
	}
}

func TestRoutedWriteReachesReplicaAndAcks(t *testing.T) {
	cl := buildFS(t, 8, 2, 303)
	const file = id.FileID("doc")
	// Find a node that is NOT a replica of the file.
	var outsider id.NodeID
	for _, nid := range cl.ids {
		if !cl.fs[nid].Node().Membership().IsTop(file, nid) {
			outsider = nid
			break
		}
	}
	if outsider == 0 {
		t.Skip("no outsider with this ring")
	}
	var acked string
	cl.fs[outsider].OnWriteAck = func(_ env.Env, _ id.FileID, key string) { acked = key }
	cl.c.CallAt(time.Second, outsider, func(e env.Env) {
		cl.fs[outsider].Write(e, file, "put", []byte("y"), 0)
	})
	cl.c.RunFor(3 * time.Second)
	if acked == "" {
		t.Fatal("routed write never acknowledged")
	}
	primary := cl.fs[outsider].Primary(file)
	log, _ := cl.fs[primary].Read(nil, file)
	if len(log) != 1 || log[0].Writer != primary {
		t.Fatalf("primary log = %v", log)
	}
}

func TestRemoteRead(t *testing.T) {
	cl := buildFS(t, 8, 2, 305)
	const file = id.FileID("doc")
	primary := cl.fs[cl.ids[0]].Primary(file)
	cl.c.CallAt(time.Second, primary, func(e env.Env) {
		cl.fs[primary].Write(e, file, "put", []byte("z"), 0)
	})
	var outsider id.NodeID
	for _, nid := range cl.ids {
		if !cl.fs[nid].Node().Membership().IsTop(file, nid) {
			outsider = nid
			break
		}
	}
	var got *ReadResult
	cl.fs[outsider].OnRead = func(_ env.Env, r ReadResult) { got = &r }
	cl.c.CallAt(2*time.Second, outsider, func(e env.Env) {
		if _, local := cl.fs[outsider].Read(e, file); local {
			t.Error("outsider read resolved locally")
		}
	})
	cl.c.RunFor(4 * time.Second)
	if got == nil || len(got.Updates) != 1 {
		t.Fatalf("remote read = %+v", got)
	}
}

func TestReplicaConflictResolvedByIDEA(t *testing.T) {
	cl := buildFS(t, 8, 3, 307)
	const file = id.FileID("doc")
	rs := cl.fs[cl.ids[0]].ReplicaSet(file)
	if len(rs) < 2 {
		t.Fatal("need 2 replicas")
	}
	// Two replicas accept concurrent writes (the P2P FS's optimistic
	// default); IDEA detects and a demanded resolution converges them.
	cl.c.CallAt(time.Second, rs[0], func(e env.Env) {
		cl.fs[rs[0]].Write(e, file, "put", []byte("a"), 1)
	})
	cl.c.CallAt(time.Second, rs[1], func(e env.Env) {
		cl.fs[rs[1]].Write(e, file, "put", []byte("b"), 2)
	})
	cl.c.RunFor(2 * time.Second)
	cl.c.CallAt(3*time.Second, rs[0], func(e env.Env) {
		cl.fs[rs[0]].Node().DemandActiveResolution(e, file)
	})
	cl.c.RunFor(5 * time.Second)
	ref := cl.fs[rs[0]].Node().Store().Open(file).Vector()
	for _, nid := range rs[1:] {
		if vv.Compare(ref, cl.fs[nid].Node().Store().Open(file).Vector()) != vv.Equal {
			t.Fatalf("replica %v did not converge", nid)
		}
	}
}

func TestMisroutedWriteForwarded(t *testing.T) {
	cl := buildFS(t, 8, 2, 309)
	const file = id.FileID("doc")
	var outsider id.NodeID
	for _, nid := range cl.ids {
		if !cl.fs[nid].Node().Membership().IsTop(file, nid) {
			outsider = nid
			break
		}
	}
	// Deliver an FSWrite to a non-replica directly: it must forward.
	var other id.NodeID
	for _, nid := range cl.ids {
		if nid != outsider && !cl.fs[nid].Node().Membership().IsTop(file, nid) {
			other = nid
			break
		}
	}
	cl.c.CallAt(time.Second, outsider, func(e env.Env) {
		e.Send(other, wire.FSWrite{File: file, Token: 1, Op: "put", Data: []byte("fwd")})
	})
	cl.c.RunFor(3 * time.Second)
	primary := cl.fs[outsider].Primary(file)
	log, _ := cl.fs[primary].Read(nil, file)
	if len(log) != 1 {
		t.Fatalf("forwarded write lost; primary log = %v", log)
	}
}
