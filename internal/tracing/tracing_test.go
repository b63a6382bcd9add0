package tracing

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"idea/internal/env"
)

func at(s int) time.Time { return time.Unix(int64(s), 0) }

// fixed is a Clock that always reads the same instant.
type fixed time.Time

func (f fixed) Now() time.Time { return time.Time(f) }

// countingEnv is a node env whose clock counts its readings; the other
// env methods are never called.
type countingEnv struct {
	env.Env
	reads int
}

func (c *countingEnv) Now() time.Time {
	c.reads++
	return at(c.reads)
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx := tr.StartWrite(fixed(at(1)), "f", 0)
	if ctx.Sampled() {
		t.Fatalf("nil tracer sampled a write")
	}
	if got := tr.Event(fixed(at(2)), ctx, EvWAL, "f", 0, 0); got != ctx {
		t.Fatalf("nil tracer changed context: %+v", got)
	}
	if tr.Journal() != nil || tr.Journal().Events() != nil {
		t.Fatalf("nil tracer has a journal")
	}
	if New(7, Config{}) != nil {
		t.Fatalf("zero config should disable tracing")
	}
}

func TestSamplingEveryN(t *testing.T) {
	tr := New(3, Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 40; i++ {
		if tr.StartWrite(fixed(at(i)), "f", int64(i)).Sampled() {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 writes at 1-in-4", sampled)
	}
	evs := tr.Journal().Events()
	if len(evs) != 10 {
		t.Fatalf("journal holds %d events, want 10", len(evs))
	}
	for _, ev := range evs {
		if ev.Name != EvInject || ev.Trace == 0 || ev.Span == 0 {
			t.Fatalf("bad inject event: %+v", ev)
		}
	}
}

func TestEventPropagatesParent(t *testing.T) {
	tr := New(5, Config{SampleEvery: 1})
	root := tr.StartWrite(fixed(at(1)), "board", 42)
	child := tr.Event(fixed(at(2)), root, EvWAL, "board", 0, 7)
	if child.Trace != root.Trace {
		t.Fatalf("trace id changed across event: %d vs %d", child.Trace, root.Trace)
	}
	if child.Span == root.Span {
		t.Fatalf("child span not minted")
	}
	evs := tr.Journal().Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[1].Parent != root.Span {
		t.Fatalf("wal event parent = %d, want inject span %d", evs[1].Parent, root.Span)
	}
	if evs[1].Arg != 7 || evs[1].At != at(2).UnixNano() {
		t.Fatalf("event payload mangled: %+v", evs[1])
	}
}

// Two tracers with the same node ID and the same call sequence must mint
// identical IDs and journals — the property the simnet determinism tests
// lean on.
func TestDeterministicIDs(t *testing.T) {
	run := func() []Event {
		tr := New(9, Config{SampleEvery: 2})
		for i := 0; i < 10; i++ {
			ctx := tr.StartWrite(fixed(at(i)), "f", int64(i))
			tr.Event(fixed(at(i)), ctx, EvWAL, "f", 0, int64(i))
		}
		return tr.Journal().Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRingOverwriteCountsDrops(t *testing.T) {
	const capacity = 2
	tr := New(2, Config{SampleEvery: 1, Buffer: capacity})
	for i := 0; i < 100; i++ {
		tr.StartWrite(fixed(at(i)), "f", int64(i))
	}
	evs := tr.Journal().Events()
	if len(evs) > capacity {
		t.Fatalf("ring retained %d events with capacity %d", len(evs), capacity)
	}
	if tr.Journal().Dropped() == 0 {
		t.Fatalf("overwrites not counted")
	}
}

// TestJournalKeepsItsCapacityFromOneGoroutine: a journal sized for Buffer
// events retains Buffer events however many goroutines record into it;
// one goroutine, the simnet case, must not see a fraction of it.
func TestJournalKeepsItsCapacityFromOneGoroutine(t *testing.T) {
	const capacity, writes = 32, 100
	tr := New(2, Config{SampleEvery: 1, Buffer: capacity})
	for i := 0; i < writes; i++ {
		tr.StartWrite(fixed(at(i)), "f", int64(i))
	}
	evs := tr.Journal().Events()
	if len(evs) != capacity {
		t.Fatalf("journal retained %d events, want its capacity %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := int64(writes - capacity + i); ev.Arg != want {
			t.Fatalf("event %d is write %d, want %d (the newest %d)", i, ev.Arg, want, capacity)
		}
	}
	if got := tr.Journal().Dropped(); got != writes-capacity {
		t.Fatalf("Dropped() = %d, want %d", got, writes-capacity)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(11, Config{SampleEvery: 1, Buffer: 65536})
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx := tr.StartWrite(fixed(at(i)), "f", int64(i))
				tr.Event(fixed(at(i)), ctx, EvApply, "f", 3, int64(i))
			}
		}()
	}
	wg.Wait()
	evs := tr.Journal().Events()
	if want := goroutines * per * 2; len(evs) != want {
		t.Fatalf("journal holds %d events, want %d", len(evs), want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not in sequence order at %d", i)
		}
	}
}

func TestHTTPHandlerFilters(t *testing.T) {
	tr := New(4, Config{SampleEvery: 1})
	ca := tr.StartWrite(fixed(at(1)), "alpha", 0)
	tr.Event(fixed(at(2)), ca, EvWAL, "alpha", 0, 0)
	cb := tr.StartWrite(fixed(at(3)), "beta", 0)
	tr.Event(fixed(at(4)), cb, EvWAL, "beta", 0, 0)

	get := func(url string) Dump {
		t.Helper()
		rec := httptest.NewRecorder()
		Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", url, rec.Code)
		}
		var d Dump
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("GET %s: bad json: %v", url, err)
		}
		return d
	}

	if d := get("/trace"); len(d.Events) != 4 || d.Node != 4 || d.SampleEvery != 1 {
		t.Fatalf("unfiltered dump wrong: %+v", d)
	}
	if d := get("/trace?file=beta"); len(d.Events) != 2 {
		t.Fatalf("file filter returned %d events", len(d.Events))
	}
	d := get("/trace?file=alpha")
	if len(d.Events) != 2 {
		t.Fatalf("file filter returned %d events", len(d.Events))
	}
	byTrace := get("/trace?trace=" + strconvUint(d.Events[0].Trace))
	if len(byTrace.Events) != 2 || byTrace.Events[0].Trace != d.Events[0].Trace {
		t.Fatalf("trace filter wrong: %+v", byTrace)
	}

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/trace?trace=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace id: status %d", rec.Code)
	}

	// A nil tracer serves an empty dump rather than panicking.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracer: status %d", rec.Code)
	}
}

func strconvUint(v uint64) string {
	b := make([]byte, 0, 20)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestUnsampledEventReadsNoClock pins that tracing reads the caller's clock
// only when it records: never for a nil tracer or an unsampled context,
// once per recorded event.
func TestUnsampledEventReadsNoClock(t *testing.T) {
	c := &countingEnv{}
	var e env.Env = c
	var off *Tracer
	off.StartWrite(e, "f", 0)
	off.Event(e, Context{Trace: 1}, EvWAL, "f", 0, 0)
	tr := New(1, Config{SampleEvery: 2})
	tr.StartWrite(e, "f", 0) // write 1 of every 2: unsampled
	tr.Event(e, Context{}, EvWAL, "f", 0, 0)
	if c.reads != 0 {
		t.Fatalf("unsampled path read the clock %d times, want 0", c.reads)
	}
	ctx := tr.StartWrite(e, "f", 0) // write 2: sampled, records inject
	tr.Event(e, ctx, EvWAL, "f", 0, 0)
	if evs := tr.Journal().Events(); c.reads != len(evs) || len(evs) != 2 {
		t.Fatalf("clock read %d times for %d recorded events, want 2 and 2", c.reads, len(evs))
	}
}

// benchEnv is the clock the benchmarks pass as protocol code does: an
// env.Env value, converted to a Clock at the call. A package variable, so
// the compiler cannot see its dynamic type.
var benchEnv env.Env = &countingEnv{}

func BenchmarkUnsampledWrite(b *testing.B) {
	tr := New(1, Config{SampleEvery: 1 << 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartWrite(benchEnv, "f", 0)
	}
}

func BenchmarkUnsampledEvent(b *testing.B) {
	tr := New(1, Config{SampleEvery: 100})
	b.ReportAllocs()
	var ctx Context
	for i := 0; i < b.N; i++ {
		tr.Event(benchEnv, ctx, EvApply, "f", 0, 0)
	}
}
