package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(50)}, // overlaps a by 10
		{Name: "c", Parent: 0, Start: ms(60), End: ms(70)},
		{Name: "d", Parent: 0, Start: ms(65), End: ms(68)}, // inside c
		{Name: "grandchild", Parent: 1, Start: ms(15), End: ms(20)},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [60,70): 50 ms of the parent's 100.
	if self[0] != ms(50) {
		t.Fatalf("parent self = %v, want 50ms", self[0])
	}
	// a's own child covers 5 of its 30 ms; grandchildren do not count
	// against the parent.
	if self[1] != ms(25) {
		t.Fatalf("a self = %v, want 25ms", self[1])
	}
	if self[4] != ms(3) {
		t.Fatalf("leaf self = %v, want its duration", self[4])
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: ms(10), End: ms(20)},
		{Name: "early", Parent: 0, Start: ms(0), End: ms(12)},
		{Name: "late", Parent: 0, Start: ms(25), End: ms(30)},
	}
	if got := selfTimes(spans)[0]; got != ms(8) {
		t.Fatalf("self = %v, want 8ms", got)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	p := tr.begin("pipeline", -1, 7)
	tr.do("stage", p, 7, func() { time.Sleep(time.Millisecond) })
	tr.end(p)
	if len(tr.spans) != 2 || tr.spans[1].Parent != p || tr.spans[1].Req != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].dur() < tr.spans[1].dur() || tr.spans[1].dur() < time.Millisecond {
		t.Fatalf("durations: parent %v, child %v", tr.spans[0].dur(), tr.spans[1].dur())
	}
}
