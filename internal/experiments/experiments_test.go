package experiments

import (
	"testing"
	"time"
)

// TestFig7aShape checks the paper's headline result: with a 95 % hint the
// user-perceived consistency level stays near the hint — dipping at most
// a couple of points below before active resolution recovers it.
func TestFig7aShape(t *testing.T) {
	r := RunFig7a(1)
	low := r.Rec.Scalar("lowest user level")
	if low < 0.90 || low >= 1.0 {
		t.Fatalf("lowest level = %.4f, want ≈0.94 (dip just below hint)", low)
	}
	if r.Rec.Scalar("resolutions") == 0 {
		t.Fatal("no resolutions ran at hint 95%")
	}
}

// TestFig7bShape: at hint 85 % resolutions are rarer and dips deeper.
func TestFig7bShape(t *testing.T) {
	a := RunFig7a(1)
	b := RunFig7b(1)
	lowA := a.Rec.Scalar("lowest user level")
	lowB := b.Rec.Scalar("lowest user level")
	if lowB >= lowA {
		t.Fatalf("hint85 low %.4f should dip below hint95 low %.4f", lowB, lowA)
	}
	if lowB < 0.78 {
		t.Fatalf("hint85 low %.4f dipped too far below the hint", lowB)
	}
	if b.Rec.Scalar("resolutions") > a.Rec.Scalar("resolutions") {
		t.Fatalf("hint85 resolved more often (%v) than hint95 (%v)",
			b.Rec.Scalar("resolutions"), a.Rec.Scalar("resolutions"))
	}
}

// TestFig8Shape: the floor tracks the hint change at t=100 s.
func TestFig8Shape(t *testing.T) {
	r := RunFig8(1)
	before := r.Rec.Scalar("lowest level before reset")
	after := r.Rec.Scalar("lowest level after reset")
	if before < 0.90 {
		t.Fatalf("first-half floor %.4f too low for hint 95%%", before)
	}
	if after >= before {
		t.Fatalf("second-half floor %.4f should drop below first-half %.4f after hint reset to 90%%", after, before)
	}
	if after < 0.83 {
		t.Fatalf("second-half floor %.4f too low for hint 90%%", after)
	}
}

// TestTable2Shape: phase 1 ≪ phase 2; per-member cost ≈ one WAN RTT.
func TestTable2Shape(t *testing.T) {
	r := RunTable2(1)
	p1 := r.Rec.Scalar("phase1 ms (fast)")
	p2 := r.Rec.Scalar("phase2 ms (fast)")
	if p1 > 5 {
		t.Fatalf("fast phase 1 = %.3f ms, want sub-5ms (paper: 0.468 ms)", p1)
	}
	if p2 < 200 || p2 > 600 {
		t.Fatalf("phase 2 = %.3f ms, want ≈314 ms", p2)
	}
	per := r.Rec.Scalar("per-member ms")
	if per < 70 || per > 200 {
		t.Fatalf("per-member cost = %.3f ms, want ≈105 ms", per)
	}
	if strict := r.Rec.Scalar("phase1 ms (strict)"); strict <= p1 {
		t.Fatalf("strict phase 1 (%.3f ms) should exceed fast (%.3f ms)", strict, p1)
	}
}

// TestFig9Shape: delay grows roughly linearly and stays sub-second at 10.
func TestFig9Shape(t *testing.T) {
	r := RunFig9(1)
	s := r.Rec.Series("measured total (ms)")
	if len(s.Points) != 9 {
		t.Fatalf("points = %d", len(s.Points))
	}
	first, last := s.Points[0].V, s.Points[len(s.Points)-1].V
	if last <= first {
		t.Fatalf("delay not increasing: n=2 %.1f ms vs n=10 %.1f ms", first, last)
	}
	if last >= 1000 {
		t.Fatalf("n=10 delay %.1f ms, paper says below one second", last)
	}
	// Roughly linear: n=10 delay ≈ (10-1)/(2-1)=9× per-member vs n=2.
	if last < 4*first {
		t.Fatalf("growth too flat for a sequential phase 2: %.1f → %.1f", first, last)
	}
}

// TestFig10Table3Shape: doubling the background frequency roughly doubles
// the overhead and raises the mean consistency level.
func TestFig10Table3Shape(t *testing.T) {
	r := RunFig10Table3(1)
	m20 := r.Rec.Scalar("messages @20s")
	m40 := r.Rec.Scalar("messages @40s")
	if m20 <= m40 {
		t.Fatalf("overhead @20s (%v) should exceed @40s (%v)", m20, m40)
	}
	ratio := m20 / m40
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("overhead ratio = %.2f, want ≈2 (paper: 168/96 = 1.75)", ratio)
	}
	l20 := r.Rec.Scalar("mean level @20s")
	l40 := r.Rec.Scalar("mean level @40s")
	if l20 <= l40 {
		t.Fatalf("mean level @20s (%.4f) should exceed @40s (%.4f)", l20, l40)
	}
	if pr := r.Rec.Scalar("msgs per round (formula 5)"); pr < 4 || pr > 80 {
		t.Fatalf("per-round messages = %.1f, implausible", pr)
	}
}

// TestFig2Shape: the measured trade-off must reproduce the Fig. 2
// ordering.
func TestFig2Shape(t *testing.T) {
	r := RunFig2Tradeoff(1)
	optMsgs := r.Rec.Scalar("optimistic (AE 30s) messages")
	ideaMsgs := r.Rec.Scalar("IDEA (hint 95%) messages")
	strongMsgs := r.Rec.Scalar("strong (primary copy) messages")
	if !(optMsgs < ideaMsgs && ideaMsgs < strongMsgs) {
		t.Fatalf("overhead ordering violated: opt=%v idea=%v strong=%v", optMsgs, ideaMsgs, strongMsgs)
	}
	optLvl := r.Rec.Scalar("optimistic (AE 30s) mean level")
	ideaLvl := r.Rec.Scalar("IDEA (hint 95%) mean level")
	strongLvl := r.Rec.Scalar("strong (primary copy) mean level")
	if !(optLvl < ideaLvl && ideaLvl <= strongLvl) {
		t.Fatalf("consistency ordering violated: opt=%.4f idea=%.4f strong=%.4f", optLvl, ideaLvl, strongLvl)
	}
	ideaDet := r.Rec.Scalar("IDEA (hint 95%) detect ms")
	optDet := r.Rec.Scalar("optimistic (AE 30s) detect ms")
	if ideaDet >= optDet {
		t.Fatalf("IDEA detection (%.1f ms) should beat optimistic (%.1f ms)", ideaDet, optDet)
	}
}

// TestCaptureShape: the top layer captures ≈95 % of conflicts when 5 % of
// writes come from the bottom layer, and the gossip sweep reports the
// rest.
func TestCaptureShape(t *testing.T) {
	r := RunTopLayerCapture(1, 0.05)
	cap := r.Rec.Scalar("capture rate")
	if cap < 0.90 {
		t.Fatalf("capture = %.3f, want >= 0.90", cap)
	}
	if r.Rec.Scalar("gossip reports") == 0 {
		t.Fatal("bottom sweep never reported the stray conflicts")
	}
}

// TestRollbackShape: the sweep contradicts the clean top-layer verdict
// within a few gossip rounds and undoes the draft operations.
func TestRollbackShape(t *testing.T) {
	r := RunRollback(1)
	if r.Rec.Scalar("undone ops") < 1 {
		t.Fatalf("rollback undid %v ops, want >= 1\n%s", r.Rec.Scalar("undone ops"), r.Rendered)
	}
	delay := r.Rec.Scalar("rollback delay s")
	if delay <= 0 || delay > 60 {
		t.Fatalf("rollback delay = %.1f s, want within a few gossip rounds", delay)
	}
}

// TestBoundsShape: feedback narrows the frequency window monotonically.
func TestBoundsShape(t *testing.T) {
	r := RunBoundsLearning(1)
	lo := r.Rec.Scalar("learned lo s")
	hi := r.Rec.Scalar("learned hi s")
	if hi == 0 || lo == 0 {
		t.Fatalf("bounds not learned: lo=%.2f hi=%.2f", lo, hi)
	}
	init := r.Rec.Scalar("initial period s")
	if hi >= init {
		t.Fatalf("oversell ceiling %.2f s should undercut the initial %.2f s", hi, init)
	}
}

// TestDeterminism: identical seeds replay identical results.
func TestDeterminism(t *testing.T) {
	a := RunHint(HintConfig{Seed: 7, Duration: 30 * time.Second, Hint: 0.95})
	b := RunHint(HintConfig{Seed: 7, Duration: 30 * time.Second, Hint: 0.95})
	if a.Rec.Scalar("messages") != b.Rec.Scalar("messages") {
		t.Fatalf("replay diverged: %v vs %v messages", a.Rec.Scalar("messages"), b.Rec.Scalar("messages"))
	}
	if a.Rec.Scalar("lowest user level") != b.Rec.Scalar("lowest user level") {
		t.Fatal("replay diverged on levels")
	}
}
