package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "ttfb", StartNs: 0, EndNs: 60},
		{ID: 3, Parent: 1, Name: "read", StartNs: 60, EndNs: 90},
		// Overlaps its sibling by 10 ns and overruns the parent by 20 ns:
		// only [90,100) is new coverage.
		{ID: 4, Parent: 1, Name: "check", StartNs: 80, EndNs: 120},
		{ID: 5, Parent: 2, Name: "grandchild", StartNs: 10, EndNs: 30},
		// Another request: a root with no children keeps its whole time.
		{ID: 6, Parent: 0, Name: "request", StartNs: 200, EndNs: 250},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 0, 2: 40, 3: 30, 4: 40, 5: 20, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTableMedians(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", StartNs: 0, EndNs: 1000},
		{ID: 2, Name: "a", StartNs: 0, EndNs: 3000},
		{ID: 3, Name: "a", StartNs: 0, EndNs: 5000},
		{ID: 4, Parent: 3, Name: "b", StartNs: 0, EndNs: 4000},
	}
	rows := selfTable(spans)
	if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("rows = %+v, want a then b", rows)
	}
	if rows[0].Count != 3 || rows[0].SelfP50Us != 1 || rows[0].TotalP50Us != 3 {
		t.Errorf("row a = %+v, want count 3, self p50 1 us (1,3,1), total p50 3 us", rows[0])
	}
	if rows[1].SelfP50Us != 4 {
		t.Errorf("row b self p50 = %v us, want 4", rows[1].SelfP50Us)
	}
}

func TestSpanBufParentIDs(t *testing.T) {
	tr := newTracer()
	sb := tr.buf()
	root := sb.reserve()
	child := sb.add("child", root, root, tr.t0, tr.t0)
	sb.addWithID(root, "root", 0, root, tr.t0, tr.t0)
	sb.flush()
	if len(tr.spans) != 2 || child == root {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].Parent != tr.spans[1].ID {
		t.Errorf("child's parent %d is not the root's ID %d", tr.spans[0].Parent, tr.spans[1].ID)
	}
}
