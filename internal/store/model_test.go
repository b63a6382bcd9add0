package store

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// modelWriters is the writer universe of the replica model: the owner
// (nA) and two remote writers.
var modelWriters = []id.NodeID{nA, nB, nB + 1}

// model is a shadow replica that keeps its whole history: every applied
// update in arrival order, compacted prefix included. It re-derives what
// a Replica must show from that history alone, with none of the
// replica's indexes.
type model struct {
	hist    []wire.Update // applied updates in arrival order
	base    int           // arrival-order prefix compacted away
	wbase   map[id.NodeID]int
	count   map[id.NodeID]int
	pending map[id.NodeID]map[int]wire.Update
	cps     []modelCheckpoint
	nextSeq int
}

type modelCheckpoint struct {
	token  int64
	count  map[id.NodeID]int
	logLen int
}

func newModel() *model {
	return &model{
		wbase:   map[id.NodeID]int{},
		count:   map[id.NodeID]int{},
		pending: map[id.NodeID]map[int]wire.Update{},
	}
}

func (m *model) live() []wire.Update { return m.hist[m.base:] }

// setLive replaces the live log, keeping the compacted prefix.
func (m *model) setLive(live []wire.Update) {
	m.hist = append(slices.Clip(m.hist[:m.base]), live...)
}

func (m *model) push(u wire.Update) {
	m.hist = append(m.hist, u)
	m.count[u.Writer] = u.Seq
}

func (m *model) drain(w id.NodeID) {
	p := m.pending[w]
	for {
		u, ok := p[m.count[w]+1]
		if !ok {
			break
		}
		delete(p, u.Seq)
		m.push(u)
	}
	if len(p) == 0 {
		delete(m.pending, w)
	}
}

func (m *model) apply(u wire.Update) bool {
	if u.File != fBoard || u.Seq <= m.count[u.Writer] {
		return false
	}
	if u.Seq == m.count[u.Writer]+1 {
		m.push(u)
		m.drain(u.Writer)
		return true
	}
	p := m.pending[u.Writer]
	if _, dup := p[u.Seq]; dup || len(p) >= maxPendingPerWriter {
		return false
	}
	if p == nil {
		p = map[int]wire.Update{}
		m.pending[u.Writer] = p
	}
	p[u.Seq] = u
	return true
}

func (m *model) writeLocal(u wire.Update) wire.Update {
	m.nextSeq = max(m.nextSeq, m.count[nA]) + 1
	u.Writer, u.Seq = nA, m.nextSeq
	m.push(u)
	m.drain(nA)
	return u
}

func (m *model) checkpoint(token int64) {
	m.cps = append(m.cps, modelCheckpoint{token: token, count: maps.Clone(m.count), logLen: len(m.hist)})
	if len(m.cps) > DefaultMaxCheckpoints {
		m.cps = m.cps[1:]
	}
}

func (m *model) rollback(token int64) ([]wire.Update, bool) {
	for i := len(m.cps) - 1; i >= 0; i-- {
		cp := m.cps[i]
		if cp.token != token {
			continue
		}
		var kept, undone []wire.Update
		for _, u := range m.live() {
			if u.Seq <= cp.count[u.Writer] {
				kept = append(kept, u)
			} else {
				undone = append(undone, u)
			}
		}
		slices.Reverse(undone)
		m.setLive(kept)
		for _, w := range modelWriters {
			m.count[w] = min(m.count[w], cp.count[w])
		}
		m.nextSeq = m.count[nA]
		m.cps = m.cps[:i]
		return undone, true
	}
	return nil, false
}

func (m *model) dropCheckpoint(token int64) {
	for i, cp := range m.cps {
		if cp.token == token {
			m.cps = slices.Delete(m.cps, i, i+1)
			return
		}
	}
}

func (m *model) adopt(target map[id.NodeID]int, updates []wire.Update, invalidate bool) (applied, invalidated int) {
	if invalidate {
		keep := func(w id.NodeID) int { return max(target[w], m.wbase[w]) }
		for w, p := range m.pending {
			for s := range p {
				if s > keep(w) {
					delete(p, s)
				}
			}
			if len(p) == 0 {
				delete(m.pending, w)
			}
		}
		var kept []wire.Update
		for _, u := range m.live() {
			if u.Seq <= keep(u.Writer) {
				kept = append(kept, u)
			} else {
				invalidated++
			}
		}
		if invalidated > 0 {
			m.setLive(kept)
			for _, w := range modelWriters {
				m.count[w] = min(m.count[w], keep(w))
			}
			for i := range m.cps {
				for w, c := range m.cps[i].count {
					m.cps[i].count[w] = min(c, keep(w))
				}
				m.cps[i].logLen = min(m.cps[i].logLen, len(m.hist))
			}
			m.nextSeq = m.count[nA]
		}
	}
	for _, u := range updates {
		if m.apply(u) {
			applied++
		}
	}
	return applied, invalidated
}

func (m *model) compact(stable map[id.NodeID]int) int {
	live := m.live()
	limit := len(live)
	for _, cp := range m.cps {
		limit = min(limit, cp.logLen-m.base)
	}
	k := 0
	for k < limit && live[k].Seq <= stable[live[k].Writer] {
		m.wbase[live[k].Writer]++
		k++
	}
	m.base += k
	return k
}

// stableCeiling is the highest frontier a writer may be compacted to:
// what every peer holds can never exceed what the replica holds, nor
// what its oldest checkpoint may still roll back to.
func (m *model) stableCeiling(w id.NodeID) int {
	c := m.count[w]
	if len(m.cps) > 0 {
		c = min(c, m.cps[0].count[w])
	}
	return c
}

// freshStart is what a replica built from a snapshot holds beyond the
// snapshot: no buffered updates and no checkpoints.
func (m *model) freshStart() {
	m.pending = map[id.NodeID]map[int]wire.Update{}
	m.cps = nil
	m.nextSeq = m.count[nA]
}

func (m *model) writerLive(w id.NodeID, after, upTo int) []wire.Update {
	var out []wire.Update
	for _, u := range m.live() {
		if u.Writer == w && u.Seq > after && u.Seq <= upTo {
			out = append(out, u)
		}
	}
	return out
}

func (m *model) missingFrom(remote map[id.NodeID]int) []wire.Update {
	var out []wire.Update
	for _, w := range modelWriters {
		if remote[w] < m.wbase[w] {
			continue
		}
		out = append(out, m.writerLive(w, remote[w], m.count[w])...)
	}
	return out
}

// sameUpdates compares two update lists element by element (nil and
// empty are the same list).
func sameUpdates(a, b []wire.Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func keys(us []wire.Update) []string {
	out := make([]string, len(us))
	for i, u := range us {
		out[i] = fmt.Sprintf("%s@%s", u.Key(), u.Op)
	}
	return out
}

// capture is a Log and a View taken mid-run, with deep copies of what
// they read then.
type capture struct {
	step     int
	log      []wire.Update
	view     View
	wantLog  []wire.Update
	wantView map[id.NodeID][]wire.Update
}

func captureOf(step int, r *Replica) capture {
	c := capture{step: step, log: r.Log(), view: r.View()}
	c.wantLog = slices.Clone(c.log)
	c.wantView = map[id.NodeID][]wire.Update{}
	for _, w := range c.view.Writers() {
		c.wantView[w] = slices.Clone(c.view.Range(w, 0, 1<<30))
	}
	return c
}

func (c capture) check(t *testing.T) {
	t.Helper()
	if !sameUpdates(c.log, c.wantLog) {
		t.Fatalf("Log taken after step %d changed:\n got %v\nwant %v", c.step, keys(c.log), keys(c.wantLog))
	}
	if got := c.view.Writers(); !slices.Equal(got, slices.Sorted(maps.Keys(c.wantView))) {
		t.Fatalf("View taken after step %d changed writers: %v", c.step, got)
	}
	for w, want := range c.wantView {
		if got := c.view.Range(w, 0, 1<<30); !sameUpdates(got, want) {
			t.Fatalf("View taken after step %d changed for writer %v:\n got %v\nwant %v", c.step, w, keys(got), keys(want))
		}
	}
}

// modelInput hands out the fuzz input a byte at a time, zeros once spent.
type modelInput []byte

func (in *modelInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// FuzzReplicaModel drives a replica through a byte-decoded sequence of
// writes, in-order, gapped, duplicate and wrong-file applies, batches,
// checkpoints, rollbacks, adoptions with and without invalidation,
// compactions and both snapshot transfers, and after every step compares
// it against the shadow model: vector counts, Len, Compacted, Pending,
// Log, MissingFrom for a chosen remote vector, and View per writer. At
// the end every Log and View taken along the way must still read what it
// read when taken.
func FuzzReplicaModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 6, 2, 1, 9, 3, 1, 0, 0, 4, 1, 3, 5, 1, 0})
	f.Add([]byte{0, 1, 4, 2, 0, 1, 1, 3, 1, 4, 0, 6, 0, 2, 1, 1, 7, 255, 255, 1, 8, 0, 9, 2})
	f.Add([]byte{1, 2, 1, 1, 1, 2, 1, 2, 7, 2, 2, 0, 10, 3, 0, 1, 5, 0, 11, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := modelInput(data)
		r, m := NewReplica(fBoard, nA), newModel()
		var caps []capture
		for step := 0; len(in) > 0 && step < 256; step++ {
			op := in.next() % 12
			w := modelWriters[in.next()%len(modelWriters)]
			fresh := func() wire.Update {
				return wire.Update{File: fBoard, Writer: w, At: vv.Stamp(step+1) * 1e6, Meta: float64(step), Op: fmt.Sprintf("s%d", step), Data: []byte{byte(step)}}
			}
			what := ""
			switch op {
			case 0:
				what = "WriteLocal"
				u := fresh()
				got := r.WriteLocal(u.At, u.Op, u.Data, u.Meta)
				if want := m.writeLocal(u); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d WriteLocal = %v, want %v", step, got.Key(), want.Key())
				}
			case 1, 2, 3, 4:
				u := fresh()
				c := m.count[w]
				switch op {
				case 1:
					what, u.Seq = "Apply/in-order", c+1
				case 2:
					what, u.Seq = "Apply/gapped", c+2+in.next()%3
				case 3:
					what, u.Seq = "Apply/duplicate", 1+in.next()%(c+1)
				case 4:
					what, u.Seq, u.File = "Apply/wrong-file", c+1, "other"
				}
				if got, want := r.Apply(u), m.apply(u); got != want {
					t.Fatalf("step %d %s %v = %v, want %v", step, what, u.Key(), got, want)
				}
			case 5:
				what = "ApplyAll"
				n, spec := 1+in.next()%4, in.next()
				batch := make([]wire.Update, n)
				for i := range batch {
					batch[i] = fresh()
					batch[i].Seq = m.count[w] + 1 + i
					batch[i].Op += fmt.Sprintf(".%d", i)
				}
				if spec&1 != 0 {
					slices.Reverse(batch)
				}
				want := 0
				for _, u := range batch {
					if m.apply(u) {
						want++
					}
				}
				if got := r.ApplyAll(batch); got != want {
					t.Fatalf("step %d ApplyAll = %d, want %d", step, got, want)
				}
			case 6:
				what = "Checkpoint"
				token := int64(in.next() % 4)
				r.Checkpoint(token)
				m.checkpoint(token)
			case 7:
				what = "Rollback"
				token := int64(in.next() % 4)
				got, err := r.Rollback(token)
				want, ok := m.rollback(token)
				if (err == nil) != ok || !sameUpdates(got, want) {
					t.Fatalf("step %d Rollback(%d) = %v, %v; want %v, known %v", step, token, keys(got), err, keys(want), ok)
				}
			case 8:
				what = "DropCheckpoint"
				token := int64(in.next() % 4)
				r.DropCheckpoint(token)
				m.dropCheckpoint(token)
			case 9:
				what = "AdoptImage"
				invalidate := in.next()&1 != 0
				target := map[id.NodeID]int{}
				img := vv.New()
				var updates []wire.Update
				for _, w := range modelWriters {
					c := m.count[w]
					target[w] = in.next() % (c + 3)
					if target[w] > 0 {
						img.SetEntry(w, vv.Entry{Count: target[w]})
					}
					for s := min(c, target[w]) + 1; s <= target[w]; s++ {
						u := fresh()
						u.Writer, u.Seq, u.Op = w, s, fmt.Sprintf("img%d.%d", step, s)
						updates = append(updates, u)
					}
				}
				ga, gi := r.AdoptImage(img, updates, invalidate)
				wa, wi := m.adopt(target, updates, invalidate)
				if ga != wa || gi != wi {
					t.Fatalf("step %d AdoptImage(invalidate=%v) = %d applied %d invalidated, want %d, %d", step, invalidate, ga, gi, wa, wi)
				}
			case 10:
				what = "CompactBelow"
				stable := map[id.NodeID]int{}
				for _, w := range modelWriters {
					stable[w] = in.next() % (m.stableCeiling(w) + 1)
				}
				if got, want := r.CompactBelow(stable), m.compact(stable); got != want {
					t.Fatalf("step %d CompactBelow(%v) = %d, want %d", step, stable, got, want)
				}
			case 11:
				// A transfer in one window (the whole log) or in windows
				// of 1 to 5 updates.
				to := NewReplica(fBoard, nA)
				what = "SnapshotWindow/whole"
				chunk := r.Len() + 1
				if in.next()&1 != 0 {
					what, chunk = "SnapshotWindow", 1+in.next()%5
				}
				vec, base, meta, start, ups, end := r.SnapshotWindow(0, chunk, 1<<20)
				if !to.BeginSnapshot(base, meta) {
					t.Fatalf("step %d BeginSnapshot refused", step)
				}
				for {
					to.ApplyAll(ups)
					if start += len(ups); start >= end {
						break
					}
					vec, _, _, start, ups, end = r.SnapshotWindow(start, chunk, 1<<20)
				}
				if !to.FinishSnapshot(vec) {
					t.Fatalf("step %d FinishSnapshot refused", step)
				}
				r = to
				m.freshStart()
			}
			checkModel(t, step, what, r, m, &in)
			caps = append(caps, captureOf(step, r))
		}
		for _, c := range caps {
			c.check(t)
		}
	})
}

// checkModel compares the replica's observable state against the model.
func checkModel(t *testing.T, step int, what string, r *Replica, m *model, in *modelInput) {
	t.Helper()
	vec := r.Vector()
	for _, w := range modelWriters {
		if got, want := vec.Count(w), m.count[w]; got != want {
			t.Fatalf("after step %d (%s): count[%v] = %d, want %d", step, what, w, got, want)
		}
	}
	pending := 0
	for _, p := range m.pending {
		pending += len(p)
	}
	if r.Len() != len(m.hist) || r.Compacted() != m.base || r.Pending() != pending {
		t.Fatalf("after step %d (%s): Len/Compacted/Pending = %d/%d/%d, want %d/%d/%d",
			step, what, r.Len(), r.Compacted(), r.Pending(), len(m.hist), m.base, pending)
	}
	if got := r.Log(); !sameUpdates(got, m.live()) {
		t.Fatalf("after step %d (%s): Log = %v, want %v", step, what, keys(got), keys(m.live()))
	}
	remote, rv := map[id.NodeID]int{}, vv.New()
	for _, w := range modelWriters {
		if remote[w] = in.next() % (m.count[w] + 2); remote[w] > 0 {
			rv.SetEntry(w, vv.Entry{Count: remote[w]})
		}
	}
	if got, want := r.MissingFrom(rv), m.missingFrom(remote); !sameUpdates(got, want) {
		t.Fatalf("after step %d (%s): MissingFrom(%v) = %v, want %v", step, what, remote, keys(got), keys(want))
	}
	view := r.View()
	var writers []id.NodeID
	for _, w := range modelWriters {
		all := m.writerLive(w, 0, 1<<30)
		if len(all) > 0 {
			writers = append(writers, w)
		}
		if got := view.Range(w, 0, 1<<30); !sameUpdates(got, all) {
			t.Fatalf("after step %d (%s): View.Range(%v) = %v, want %v", step, what, w, keys(got), keys(all))
		}
		after := in.next() % (m.count[w] + 2)
		upTo := after + in.next()%4
		if got, want := view.Range(w, after, upTo), m.writerLive(w, after, upTo); !sameUpdates(got, want) {
			t.Fatalf("after step %d (%s): View.Range(%v, %d, %d) = %v, want %v", step, what, w, after, upTo, keys(got), keys(want))
		}
	}
	if got := view.Writers(); !slices.Equal(got, writers) {
		t.Fatalf("after step %d (%s): View.Writers = %v, want %v", step, what, got, writers)
	}
}
