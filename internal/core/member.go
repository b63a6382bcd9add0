package core

// Dynamic-membership wiring: the SWIM agent's events feed the live
// overlay view (dead nodes leave every layer, joiners enter the bottom
// layer), the RanSub tree is rebuilt over the alive set, per-file state
// of departed writers is pruned in each owning shard, and a joining node
// bootstraps its replica store via snapshot state transfer from the seed
// that answered its JoinRequest — one transfer of (vector, compaction
// base, live log tail) per file instead of replaying history through
// anti-entropy.

import (
	"sort"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/overlay"
	"idea/internal/wire"
)

// MemberFunc observes membership events on the node (the live runtime
// uses it to add/remove transport peers); it runs on shard 0.
type MemberFunc = membership.EventFunc

const (
	// keyMemberPrune fans a dead writer's per-file cleanup out to each
	// shard's own serialization domain.
	keyMemberPrune = "core.member.prune"
	// keyJoinRetry re-drives an incomplete snapshot bootstrap.
	keyJoinRetry = "core.join.retry"
	// joinRetryEvery is the bootstrap retry period (frames can be dropped
	// by full queues; the joiner re-requests whatever is still missing).
	joinRetryEvery = 3 * time.Second
	// snapChunkUpdates / snapChunkBytes bound one snapshot chunk: the
	// server never materializes (and the joiner never receives) more
	// than one window of a file's log per frame, so bootstrap peak
	// memory is O(chunk), not O(store). The byte cap is approximate
	// (payload bytes, counted before encoding).
	snapChunkUpdates = 512
	snapChunkBytes   = 1 << 20
)

// pruneShard is the payload of a keyMemberPrune timer.
type pruneShard struct {
	shard  int
	writer id.NodeID
}

// joinState tracks one snapshot bootstrap. Replies land in per-file
// shards while the retry timer runs on shard 0, so it sits behind a
// mutex.
type joinState struct {
	mu          sync.Mutex
	active      bool
	seed        id.NodeID
	started     time.Time
	manifest    bool
	outstanding map[id.FileID]*fileFetch
	done        bool
	catchup     time.Duration
}

// fileFetch is one file's chunked-transfer progress. Chunk handling for
// a file runs in that file's serialization domain, but joinState (and
// so these records) is shared with the shard-0 retry timer — access
// only under joinState.mu.
type fileFetch struct {
	next int // next absolute log offset to pull
	// begun: the replica was empty and BeginSnapshot adopted the
	// sender's base; chunks stream through Apply and the transfer ends
	// with FinishSnapshot (byte-equivalent replica).
	begun bool
	// degraded: the replica already held state (e.g. writes raced the
	// bootstrap), so chunks best-effort ApplyAll and the normal
	// protocol converges the rest.
	degraded bool
}

// setupMembership builds the SWIM agent and live view for a node whose
// Options enable dynamic membership. Called from NewNode; initial is the
// starting member list (self included) and base provides top-layer
// beliefs. It returns the membership view to install as n.mem.
func (n *Node) setupMembership(opts Options, initial []id.NodeID, base overlay.Membership) overlay.Membership {
	n.view = overlay.NewView(n.self, initial, base)
	if opts.Membership == nil {
		// No static pins: an empty (or fully dead) top layer degrades to
		// the whole alive set, so a fresh joiner can detect and resolve
		// against somebody instead of nobody.
		n.view.SetTopFallback(true)
	}
	n.swim = membership.New(*opts.Swim, n.self, initial)
	n.swim.AttachMetrics(n.reg)
	n.swim.OnEvent(n.handleMemberEvent)
	n.swim.OnJoined(n.handleJoined)
	n.met.joinCatchup = n.reg.Gauge("membership.join_catchup_ms")
	n.met.snapshotBytes = n.reg.Counter("store.snapshot_bytes")
	return n.view
}

func contains(ns []id.NodeID, x id.NodeID) bool {
	for _, n := range ns {
		if n == x {
			return true
		}
	}
	return false
}

// SwimAgent exposes the dynamic-membership agent (nil when Options.Swim
// was not set).
func (n *Node) SwimAgent() *membership.Agent { return n.swim }

// View exposes the live membership view (nil without Options.Swim).
func (n *Node) View() *overlay.View { return n.view }

// SetOnMember installs an additional membership-event observer, returning
// the previous one. The live runtime uses it to learn and forget peer
// addresses; it runs after the node's own view/overlay bookkeeping, so an
// Alive event's address is registrable before any reply flows.
func (n *Node) SetOnMember(f MemberFunc) MemberFunc { return n.onMember.swap(f) }

// SetOnJoined installs an observer fired once the join handshake
// completes (before the snapshot bootstrap starts), returning the
// previous one. The live runtime uses it to retire the seed-alias
// transport link once the seed's real identity is known.
func (n *Node) SetOnJoined(f membership.JoinedFunc) membership.JoinedFunc {
	return n.onJoined.swap(f)
}

// SetAdvertiseAddr records the node's dialable address once the live
// listener is bound; call before the transport starts.
func (n *Node) SetAdvertiseAddr(addr string) {
	if n.swim != nil {
		n.swim.SetSelfAddr(addr)
	}
}

// Leave announces voluntary departure to the cluster (no-op without
// dynamic membership). Call it from inside the event loop (Inject) before
// closing the node.
func (n *Node) Leave(e env.Env) {
	if n.swim != nil {
		n.swim.Leave(e)
	}
}

// JoinCatchup returns how long the snapshot bootstrap took; ok is false
// while it is still running (or when the node never joined).
func (n *Node) JoinCatchup() (time.Duration, bool) {
	n.join.mu.Lock()
	defer n.join.mu.Unlock()
	return n.join.catchup, n.join.done
}

// joinStatus reports the snapshot-bootstrap phase to the health engine's
// join-stall detector.
func (n *Node) joinStatus(now time.Time) health.JoinStatus {
	n.join.mu.Lock()
	defer n.join.mu.Unlock()
	js := health.JoinStatus{Active: n.join.active, Done: n.join.done}
	if js.Active && !js.Done {
		js.Running = now.Sub(n.join.started)
	}
	return js
}

// handleMemberEvent is the agent's event sink: it keeps the view, the
// RanSub tree, and per-shard replica state in step with the membership,
// then chains to the externally installed observer.
func (n *Node) handleMemberEvent(e env.Env, ev membership.Event) {
	switch ev.Status {
	case membership.Alive:
		n.health.Recorder().Record(e.Now(), health.FKMemberAlive, "", ev.Node, 0, "")
		n.view.Add(ev.Node)
		if n.ran != nil {
			n.ran.SetAll(n.view.All())
		}
	case membership.Suspect:
		n.health.Recorder().Record(e.Now(), health.FKMemberSuspect, "", ev.Node, 0, "")
		n.health.RecordSuspect(e.Now(), ev.Node)
	case membership.Dead:
		n.health.Recorder().Record(e.Now(), health.FKMemberDead, "", ev.Node, 0, "")
		n.view.Remove(ev.Node)
		if n.ran != nil {
			n.ran.SetAll(n.view.All())
		}
		// A dead writer's buffered out-of-order updates wait for a gap
		// only the dead node could close; shed them in each owning
		// shard's own domain.
		for i := 0; i < n.nshards; i++ {
			e.After(0, keyMemberPrune, pruneShard{shard: i, writer: ev.Node})
		}
	}
	if f := n.onMember.get(); f != nil {
		f(e, ev)
	}
}

// pruneDeparted sheds a dead node's pending updates from the files of one
// shard.
func (n *Node) pruneDeparted(sh int, writer id.NodeID) {
	files := n.st.FilesFiltered(func(f id.FileID) bool {
		return n.ShardOfFile(f) == sh
	})
	for _, f := range files {
		if r := n.st.Peek(f); r != nil {
			r.DropPendingFrom(writer)
		}
	}
}

// ---- snapshot bootstrap (joiner side) ----

// handleJoined fires once the JoinReply installed the cluster view: start
// pulling the seed's store.
func (n *Node) handleJoined(e env.Env, seed id.NodeID) {
	n.join.mu.Lock()
	n.join.active = true
	n.join.seed = seed
	n.join.started = e.Now()
	n.join.mu.Unlock()
	n.health.Recorder().Record(e.Now(), health.FKJoinStart, "", seed, 0, "")
	if f := n.onJoined.get(); f != nil {
		f(e, seed)
	}
	e.Send(seed, wire.SnapshotRequest{})
	e.After(joinRetryEvery, keyJoinRetry, nil)
}

// joinRetry re-requests whatever part of the bootstrap is still
// missing, resuming each in-flight file at the offset it reached (the
// chunk protocol is stateless on the server, so a re-request is
// idempotent).
func (n *Node) joinRetry(e env.Env) {
	n.join.mu.Lock()
	if !n.join.active || n.join.done {
		n.join.mu.Unlock()
		return
	}
	seed := n.join.seed
	var missing []wire.SnapshotFileRequest
	if n.join.manifest {
		for f, ff := range n.join.outstanding {
			missing = append(missing, wire.SnapshotFileRequest{File: f, Offset: ff.next})
		}
	}
	manifest := n.join.manifest
	n.join.mu.Unlock()
	// Deterministic re-request order (the queue is a map).
	sort.Slice(missing, func(i, j int) bool { return missing[i].File < missing[j].File })
	if !manifest {
		e.Send(seed, wire.SnapshotRequest{})
	}
	for _, req := range missing {
		e.Send(seed, req)
	}
	e.After(joinRetryEvery, keyJoinRetry, nil)
}

// handleSnapshotManifest records the file census and starts pulling each
// file from offset zero. Files fetch concurrently (each in its own
// shard), but within a file the in-flight window is one chunk.
func (n *Node) handleSnapshotManifest(e env.Env, from id.NodeID, m wire.SnapshotManifest) {
	n.join.mu.Lock()
	if !n.join.active || n.join.manifest || from != n.join.seed {
		n.join.mu.Unlock()
		return
	}
	n.join.manifest = true
	n.join.outstanding = make(map[id.FileID]*fileFetch, len(m.Files))
	for _, f := range m.Files {
		n.join.outstanding[f] = &fileFetch{}
	}
	empty := len(m.Files) == 0
	n.join.mu.Unlock()
	if empty {
		n.finishJoin(e)
		return
	}
	for _, f := range m.Files {
		e.Send(from, wire.SnapshotFileRequest{File: f})
	}
}

// handleSnapshotChunk integrates one window of a file's snapshot (in the
// file's own serialization domain), pulls the next window, and completes
// the bootstrap when the last file finishes.
func (n *Node) handleSnapshotChunk(e env.Env, from id.NodeID, m wire.SnapshotFileChunk) {
	n.join.mu.Lock()
	ff := n.join.outstanding[m.File]
	want := n.join.active && !n.join.done && ff != nil && from == n.join.seed
	n.join.mu.Unlock()
	if !want {
		return
	}
	if m.VV == nil {
		// The seed no longer holds the file; nothing to transfer.
		n.snapshotFileDone(e, m.File)
		return
	}
	rep := n.st.Open(m.File)
	n.join.mu.Lock()
	if !ff.begun && !ff.degraded {
		if rep.BeginSnapshot(m.Base, m.PrefixMeta) {
			ff.begun = true
		} else {
			// The replica already holds state (e.g. writes raced the
			// bootstrap): fall back to applying what fits; the normal
			// protocol converges the rest — except a prefix the sender
			// has compacted away, which no peer can ship anymore. That
			// combination (a local head start racing a snapshot from a
			// log-compacting seed) leaves the file permanently behind,
			// so make it loud instead of silent.
			ff.degraded = true
			local := rep.Vector()
			for w, b := range m.Base {
				if b > local.Count(w) {
					e.Logf("core: snapshot for %s unusable: replica already holds state but sender compacted %v below seq %d; file cannot fully converge",
						m.File, w, b)
					break
				}
			}
		}
	}
	if ff.begun && m.Offset > ff.next {
		// The sender compacted past our progress mid-transfer (its base
		// moved); the missing prefix can no longer be shipped by anyone.
		e.Logf("core: snapshot stream for %s jumped %d→%d: sender compacted mid-transfer; falling back to best-effort apply",
			m.File, ff.next, m.Offset)
		ff.begun, ff.degraded = false, true
	}
	begun := ff.begun
	if next := m.Offset + len(m.Updates); next > ff.next {
		ff.next = next
	}
	next := ff.next
	n.join.mu.Unlock()
	rep.ApplyAll(m.Updates)
	if next < m.End {
		e.Send(from, wire.SnapshotFileRequest{File: m.File, Offset: next})
		return
	}
	if begun && !rep.FinishSnapshot(m.VV) {
		// Counts diverged (e.g. a retransmitted tail raced new writes on
		// the sender): the replica still holds every update it applied;
		// anti-entropy converges the remainder.
		e.Logf("core: snapshot stream for %s finished without exact vector adoption; converging via anti-entropy", m.File)
	}
	n.snapshotFileDone(e, m.File)
}

// snapshotFileDone retires one file from the bootstrap queue and
// completes the join when it was the last.
func (n *Node) snapshotFileDone(e env.Env, f id.FileID) {
	n.join.mu.Lock()
	delete(n.join.outstanding, f)
	left := len(n.join.outstanding)
	manifest := n.join.manifest
	done := n.join.done
	n.join.mu.Unlock()
	if !done && manifest && left == 0 {
		n.finishJoin(e)
	}
}

func (n *Node) finishJoin(e env.Env) {
	n.join.mu.Lock()
	if n.join.done {
		n.join.mu.Unlock()
		return
	}
	n.join.done = true
	n.join.catchup = e.Now().Sub(n.join.started)
	catchup := n.join.catchup
	n.join.mu.Unlock()
	n.met.joinCatchup.Set(catchup.Milliseconds())
	n.health.Recorder().Record(e.Now(), health.FKJoinDone, "", n.self, catchup.Milliseconds(), "")
	e.Logf("core: join bootstrap complete in %v", catchup)
}

// ---- snapshot transfer (server side) ----

// handleSnapshotRequest serves the file census (shard 0).
func (n *Node) handleSnapshotRequest(e env.Env, from id.NodeID) {
	e.Send(from, wire.SnapshotManifest{Files: n.st.Files()})
}

// handleSnapshotFileRequest serves one bounded window of a file's
// snapshot from the shard owning it. The server keeps no per-transfer
// state: every chunk carries the full vector and base, and the client
// addresses the next window by absolute log offset, so retries and
// duplicate requests are idempotent.
func (n *Node) handleSnapshotFileRequest(e env.Env, from id.NodeID, m wire.SnapshotFileRequest) {
	reply := wire.SnapshotFileChunk{File: m.File}
	if r := n.st.Peek(m.File); r != nil {
		reply.VV, reply.Base, reply.PrefixMeta, reply.Offset, reply.Updates, reply.End =
			r.SnapshotWindow(m.Offset, snapChunkUpdates, snapChunkBytes)
	}
	if n.met.snapshotBytes != nil {
		n.met.snapshotBytes.Add(int64(wire.Size(wire.Envelope{From: n.self, To: from, Msg: reply})))
	}
	e.Send(from, reply)
}

// recvMembership dispatches membership and snapshot-transfer messages;
// it returns false for other kinds.
func (n *Node) recvMembership(e env.Env, from id.NodeID, msg env.Message) bool {
	if n.swim == nil {
		return false
	}
	if n.swim.Recv(e, from, msg) {
		return true
	}
	switch m := msg.(type) {
	case wire.SnapshotRequest:
		n.handleSnapshotRequest(e, from)
	case wire.SnapshotManifest:
		n.handleSnapshotManifest(e, from, m)
	case wire.SnapshotFileRequest:
		n.handleSnapshotFileRequest(e, from, m)
	case wire.SnapshotFileChunk:
		n.handleSnapshotChunk(e, from, m)
	default:
		return false
	}
	return true
}
