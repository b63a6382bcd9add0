package id

import (
	"fmt"
	"testing"
)

func TestNodeIDString(t *testing.T) {
	if got := NodeID(42).String(); got != "n42" {
		t.Fatalf("String = %q", got)
	}
	if got := Nil.String(); got != "n0" {
		t.Fatalf("Nil.String = %q", got)
	}
	for _, n := range []NodeID{-1, -1 << 63, 1<<63 - 1} {
		if got, want := n.String(), fmt.Sprintf("n%d", int64(n)); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

func TestFileIDString(t *testing.T) {
	if got := FileID("board").String(); got != "board" {
		t.Fatalf("String = %q", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	if !(PrioritySupervisor > PriorityOrdinary) {
		t.Fatal("supervisor must outrank ordinary")
	}
}
