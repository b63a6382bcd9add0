package topview_test

// End-to-end check of the introspection loop idea-top runs: three live
// TCP nodes serve their admin endpoints, Collect sees a healthy cluster
// under write load, an injected WAL failure flips the verdict to
// critical (and /healthz to 503), and acking the anomaly brings the
// sweep back to "nothing unacknowledged" without hiding the verdict.

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/topview"
)

const board = id.FileID("board")

func TestLiveClusterHealthAndWALFailure(t *testing.T) {
	all := cluster.IDs(3)
	walDir := t.TempDir()
	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes:     all,
		TopLayers: map[id.FileID][]id.NodeID{board: all},
		Shards:    core.NumShardsAuto,
		WalDir:    walDir,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Health = health.Config{Interval: 50 * time.Millisecond}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	nodes := make(map[id.NodeID]*cluster.LiveNode, len(all))
	bases := make([]string, 0, len(all))
	for _, nid := range all {
		nodes[nid] = lb.Node(nid)
		admin, err := cluster.ServeAdmin("127.0.0.1:0", nodes[nid].N)
		if err != nil {
			t.Fatal(err)
		}
		defer admin.Close()
		bases = append(bases, admin.Addr())
	}

	// Some load: writes on every node, so counters move and the health
	// engines have real probes to chew on.
	for _, nid := range all {
		ln := nodes[nid]
		done := make(chan struct{})
		ln.InjectFile(board, func(e env.Env) {
			for i := 0; i < 10; i++ {
				ln.N.Write(e, board, "w", []byte(fmt.Sprintf("n%d-%d", nid, i)), 0)
			}
			close(done)
		})
		<-done
	}

	client := &http.Client{Timeout: 5 * time.Second}
	cs := waitVerdict(t, client, bases, health.Healthy)
	if !cs.OK() {
		t.Fatalf("healthy cluster not OK: %+v", cs)
	}
	if cs.Unreachable != 0 || len(cs.Nodes) != 3 {
		t.Fatalf("collect saw %d/%d nodes", len(cs.Nodes)-cs.Unreachable, len(all))
	}

	// Close node 1's journal under it: its next group write and fsync
	// sweep fail on the closed descriptor, which trips the journal's
	// sticky error. (Removing the directory would not: the open journal's
	// descriptor still writes to the unlinked file.)
	if err := nodes[1].N.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	nodes[1].InjectFile("fresh", func(e env.Env) {
		nodes[1].N.Write(e, "fresh", "w", []byte("x"), 0)
		close(done)
	})
	<-done

	cs = waitVerdict(t, client, bases, health.Critical)
	if cs.UnackedCritical == 0 {
		t.Fatalf("critical cluster reports no unacked anomaly: %+v", cs)
	}
	if cs.OK() {
		t.Fatal("OK() true with an unacked critical anomaly")
	}

	// The liveness probe must flip with the verdict.
	resp, err := client.Get("http://" + bases[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on failed node = %d, want 503", resp.StatusCode)
	}

	// Acking clears the gate idea-top -json exits on, not the verdict.
	resp, err = client.Post("http://"+bases[0]+"/health?ack="+health.DetWALFsync, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack = %d, want 200", resp.StatusCode)
	}
	cs = topview.Collect(client, bases, false)
	if cs.UnackedCritical != 0 || !cs.OK() {
		t.Fatalf("after ack: unacked=%d ok=%v", cs.UnackedCritical, cs.OK())
	}
	if cs.Verdict != health.Critical {
		t.Fatalf("ack hid the verdict: %v", cs.Verdict)
	}
}

// waitVerdict polls Collect until the cluster verdict matches, failing
// the test after a deadline.
func waitVerdict(t *testing.T, client *http.Client, bases []string, want health.Verdict) topview.ClusterSample {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var cs topview.ClusterSample
	for {
		cs = topview.Collect(client, bases, false)
		if cs.Unreachable == 0 && cs.Verdict == want {
			return cs
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %v: %+v", want, cs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
