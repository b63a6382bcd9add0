package health

import (
	"sync"
	"testing"
	"time"

	"idea/internal/id"
)

func TestFlightRecorderOrderAndContent(t *testing.T) {
	r := NewRecorder(16)
	base := time.Unix(100, 0)
	r.Record(base, FKNodeStart, "", 1, 4, "")
	r.Record(base.Add(time.Second), FKMemberSuspect, "", 7, 0, "")
	r.Record(base.Add(2*time.Second), FKAlert, "board", 3, 950, "")
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len(events) = %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[2].Kind != FKAlert || evs[2].File != "board" || evs[2].Node != 3 || evs[2].Arg != 950 {
		t.Fatalf("alert event = %+v", evs[2])
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestFlightRecorderBounded(t *testing.T) {
	const perClass = 8
	r := NewRecorder(perClass)
	for i := 0; i < 10*perClass; i++ {
		r.Record(time.Unix(int64(i), 0), FKMemberAlive, "", 1, int64(i), "")
	}
	evs := r.Events()
	if len(evs) > perClass {
		t.Fatalf("retained %d events, the class's capacity is %d", len(evs), perClass)
	}
	if r.Dropped() == 0 {
		t.Fatal("dropped = 0 after overrunning the ring")
	}
	// The ring keeps recent history: the newest event must be retained.
	var maxSeq uint64
	for _, ev := range evs {
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
	}
	if want := uint64(10 * perClass); maxSeq != want {
		t.Fatalf("newest retained seq = %d, want %d", maxSeq, want)
	}
}

func TestFlightRecorderChattyFloodSparesLifecycle(t *testing.T) {
	const perClass = 8
	r := NewRecorder(perClass)
	r.Record(time.Unix(1, 0), FKNodeStart, "", 1, 0, "")
	r.Record(time.Unix(2, 0), FKMemberDead, "", 4, 0, "")
	// A resolver storm: orders of magnitude more adoptions and alerts
	// than the ring holds. They may only evict each other.
	for i := 0; i < 100*2*perClass; i++ {
		kind := FKResolved
		if i%2 == 0 {
			kind = FKAlert
		}
		r.Record(time.Unix(int64(i), 0), kind, "f", 2, int64(i), "")
	}
	var start, dead, resolved int
	for _, ev := range r.Events() {
		switch ev.Kind {
		case FKNodeStart:
			start++
		case FKMemberDead:
			dead++
		case FKResolved:
			resolved++
		}
	}
	if start != 1 || dead != 1 {
		t.Fatalf("chatty flood evicted lifecycle events: start=%d dead=%d", start, dead)
	}
	if resolved == 0 {
		t.Fatal("no resolved events retained")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Unix(int64(i), 0), FKResolved, "f", id.NodeID(g), int64(i), "")
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, ev := range r.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestFlightDumpOfNil(t *testing.T) {
	d := DumpOf(5, nil)
	if d.Node != 5 || d.Dropped != 0 || d.Events != nil {
		t.Fatalf("DumpOf(nil) = %+v", d)
	}
}
