package idea_test

// The live dynamic-membership acceptance test: against a real-TCP 3-node
// cluster under load, a 4th node started with nothing but a seed address
// joins, snapshot-bootstraps, and converges to vector-equal store state;
// and a killed node is confirmed dead, evicted from every layer, and its
// transport link torn down. Runs under -race in CI.

import (
	"testing"
	"time"

	"idea"
	"idea/internal/cluster"
	"idea/internal/id"
	"idea/internal/loadgen"
	"idea/internal/membership"
	"idea/internal/vv"
)

const liveFile = idea.FileID("f")

// fastSwim keeps the failure-detection cycle short enough for a test:
// probe 150 ms, direct+indirect timeouts 2×75 ms, confirm 450 ms.
func fastSwim() *idea.MembershipConfig {
	return &idea.MembershipConfig{
		ProbeInterval:  150 * time.Millisecond,
		ProbeTimeout:   75 * time.Millisecond,
		SuspectTimeout: 450 * time.Millisecond,
		JoinRetry:      300 * time.Millisecond,
	}
}

// vectorOf reads the file's vector inside its serialization domain.
func vectorOf(ln *idea.LiveNode) *vv.Vector {
	ch := make(chan *vv.Vector, 1)
	ln.InjectFile(liveFile, func(e idea.Env) {
		ch <- ln.N.Store().Open(liveFile).Vector()
	})
	return <-ch
}

func TestLiveJoinConvergesAndDeadNodeEvicted(t *testing.T) {
	all := []idea.NodeID{1, 2, 3}
	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes:     all,
		TopLayers: map[idea.FileID][]idea.NodeID{liveFile: all},
		Shards:    2,
		Swim:      fastSwim(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	nodes := make(map[idea.NodeID]*idea.LiveNode)
	for _, nid := range all {
		nodes[nid] = lb.Node(nid)
	}

	// Drive load at the seed while the 4th node joins mid-run.
	loadDone := make(chan *loadgen.Report, 1)
	go func() {
		loadDone <- loadgen.RunLive(loadgen.Config{
			Seed:     1,
			Duration: 2500 * time.Millisecond,
			Rate:     150,
			Files:    []id.FileID{id.FileID(liveFile)},
		}, nodes[1].N, nodes[1], nil)
	}()

	time.Sleep(400 * time.Millisecond)
	joiner, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self:       4,
		Listen:     "127.0.0.1:0",
		Join:       nodes[1].Addr(), // the only configuration the joiner gets
		SwimConfig: fastSwim(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	// The snapshot bootstrap must complete while the cluster is loaded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := joiner.JoinCatchup(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("join bootstrap never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	catchup, _ := joiner.JoinCatchup()
	t.Logf("join catch-up took %v", catchup)

	rep := <-loadDone
	if rep.Ops == 0 {
		t.Fatal("load produced no ops; cluster broken")
	}

	// Convergence: the joiner resolves (its top layer falls back to the
	// whole alive view) until its vector equals the seed's.
	deadline = time.Now().Add(15 * time.Second)
	for {
		joiner.InjectFile(liveFile, func(e idea.Env) {
			joiner.N.DemandActiveResolution(e, liveFile)
		})
		time.Sleep(300 * time.Millisecond)
		v1, v4 := vectorOf(nodes[1]), vectorOf(joiner)
		if vv.Compare(v4, v1) == vv.Equal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never converged: seed %v vs joiner %v", v1, v4)
		}
	}

	// All four nodes see each other alive.
	for _, nid := range all {
		waitStatus(t, nodes[nid], 4, membership.Alive, 5*time.Second)
	}
	waitStatus(t, joiner, 3, membership.Alive, 5*time.Second)

	// Kill node 3 without a leave: the survivors must confirm it dead
	// within the suspect+confirm window and evict it from every layer.
	nodes[3].Close()
	killAt := time.Now()
	waitStatus(t, nodes[1], 3, membership.Dead, 10*time.Second)
	waitStatus(t, joiner, 3, membership.Dead, 10*time.Second)
	t.Logf("death confirmed %v after kill", time.Since(killAt))

	view := nodes[1].N.View()
	if view.Contains(3) {
		t.Error("dead node still in node 1's bottom layer")
	}
	if nodes[1].N.Membership().IsTop(liveFile, 3) {
		t.Error("dead node still in node 1's top layer")
	}
	found := false
	for _, n := range nodes[1].N.Membership().Top(liveFile) {
		if n == 3 {
			found = true
		}
	}
	if found {
		t.Error("dead node listed in Top()")
	}
}

// waitStatus polls a node's membership view for a peer's status.
func waitStatus(t *testing.T, ln *idea.LiveNode, peer idea.NodeID, want membership.Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, r := range ln.Members() {
			if r.Node == peer && r.Status == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %v never saw %v as %v (view: %+v)", ln.N.ID(), peer, want, ln.Members())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
