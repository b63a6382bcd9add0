package overlay

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"idea/internal/id"
	"idea/internal/ransub"
)

const board = id.FileID("board")

var all = []id.NodeID{5, 1, 3, 2, 4} // deliberately unsorted

func TestStaticSortsAndCopies(t *testing.T) {
	top := []id.NodeID{3, 1}
	s := NewStatic(all, map[id.FileID][]id.NodeID{board: top})
	got := s.All()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("All not sorted: %v", got)
		}
	}
	tl := s.Top(board)
	if len(tl) != 2 || tl[0] != 1 || tl[1] != 3 {
		t.Fatalf("Top = %v", tl)
	}
	top[0] = 99 // mutation of the input must not leak in
	if s.IsTop(board, 99) {
		t.Fatal("static view aliases caller slice")
	}
}

func TestStaticIsTop(t *testing.T) {
	s := NewStatic(all, map[id.FileID][]id.NodeID{board: {2, 4}})
	if !s.IsTop(board, 2) || s.IsTop(board, 3) || s.IsTop("other", 2) {
		t.Fatal("IsTop answers wrong")
	}
}

func TestStaticSetTop(t *testing.T) {
	s := NewStatic(all, nil)
	if len(s.Top(board)) != 0 {
		t.Fatal("unset top layer not empty")
	}
	s.SetTop(board, []id.NodeID{5})
	if !s.IsTop(board, 5) {
		t.Fatal("SetTop did not apply")
	}
}

func TestTopPeersExcludesSelf(t *testing.T) {
	s := NewStatic(all, map[id.FileID][]id.NodeID{board: {1, 2, 3}})
	ps := TopPeers(s, board, 2)
	if len(ps) != 2 || ps[0] != 1 || ps[1] != 3 {
		t.Fatalf("TopPeers = %v", ps)
	}
}

func TestBottomPeersExcludesSelf(t *testing.T) {
	s := NewStatic(all, nil)
	ps := BottomPeers(s, 3)
	if len(ps) != 4 {
		t.Fatalf("BottomPeers = %v", ps)
	}
	for _, p := range ps {
		if p == 3 {
			t.Fatal("self in bottom peers")
		}
	}
}

func TestDynamicTracksRansub(t *testing.T) {
	agent := ransub.New(ransub.Config{}, 1, []id.NodeID{1, 2, 3})
	d := NewDynamic([]id.NodeID{1, 2, 3}, agent)
	if len(d.Top(board)) != 0 {
		t.Fatal("cold agent has a top layer")
	}
	agent.RecordUpdate(board)
	if !d.IsTop(board, 1) {
		t.Fatal("hot self not in dynamic top layer")
	}
	tl := d.Top(board)
	if len(tl) != 1 || tl[0] != 1 {
		t.Fatalf("Top = %v", tl)
	}
	if len(d.All()) != 3 {
		t.Fatalf("All = %v", d.All())
	}
}

func TestPerFileIndependence(t *testing.T) {
	s := NewStatic(all, map[id.FileID][]id.NodeID{
		board:    {1, 2},
		"orders": {3, 4},
	})
	if s.IsTop(board, 3) || s.IsTop("orders", 1) {
		t.Fatal("top layers interfere across files")
	}
}

// TestTopPeersRacesSetTop re-pins a layer while readers call TopPeers and
// IsTop (run it under -race): every read sees one whole version of the
// layer. It also pins what a read costs: TopPeers copies a Static layer
// once, and a lone writer's, which holds nobody else, not at all.
func TestTopPeersRacesSetTop(t *testing.T) {
	wide, narrow := []id.NodeID{1, 2, 3}, []id.NodeID{1, 4}
	s := NewStatic(all, map[id.FileID][]id.NodeID{board: wide, "solo": {1}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.SetTop(board, narrow)
			} else {
				s.SetTop(board, wide)
			}
		}
	}()
	read := func() string {
		for i := 0; i < 2000; i++ {
			ps := TopPeers(s, board, 1)
			if !slices.Equal(ps, wide[1:]) && !slices.Equal(ps, narrow[1:]) {
				return fmt.Sprintf("TopPeers = %v: not one version of the layer", ps)
			}
			if !s.IsTop(board, 1) || s.IsTop(board, 5) {
				return "IsTop answers wrong during SetTop"
			}
		}
		return ""
	}
	const readers = 2
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		go func() { errs <- read() }()
	}
	var failed string
	for r := 0; r < readers; r++ {
		if msg := <-errs; msg != "" {
			failed = msg
		}
	}
	close(stop)
	wg.Wait()
	if failed != "" {
		t.Fatal(failed)
	}

	if n := testing.AllocsPerRun(100, func() { TopPeers(s, "solo", 1) }); n != 0 {
		t.Fatalf("a lone writer's TopPeers allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { TopPeers(s, board, 1) }); n != 1 {
		t.Fatalf("TopPeers allocates %v times, want 1", n)
	}
}
