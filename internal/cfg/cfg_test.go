package cfg

import (
	"testing"

	"gpa/internal/sass"
)

// diamond: entry branches to two arms that rejoin and loop.
const diamondSrc = `
.func diamond global
.line d.cu 1
	ISETP P0, R0, 0x0 {S:4}
	@P0 BRA ELSE {S:5}
	IADD R1, R1, 0x1 {S:4}
	BRA JOIN {S:5}
ELSE:
	IADD R1, R1, 0x2 {S:4}
JOIN:
	IADD R2, R1, 0x3 {S:4}
	EXIT
`

const loopSrc = `
.func loopnest global
.line l.cu 1
	MOV R0, 0x0 {S:2}
OUTER:
	MOV R1, 0x0 {S:2}
INNER:
	IADD R1, R1, 0x1 {S:4}
	ISETP P0, R1, 0x8 {S:4}
	@P0 BRA INNER {S:5}
	IADD R0, R0, 0x1 {S:4}
	ISETP P1, R0, 0x4 {S:4}
	@P1 BRA OUTER {S:5}
	EXIT
`

func build(t *testing.T, src, fn string) *Graph {
	t.Helper()
	m, err := sass.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	g, err := Build(m.Function(fn))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildDiamond(t *testing.T) {
	g := build(t, diamondSrc, "diamond")
	// Blocks: [0,2) entry, [2,4) then-arm, [4,5) else, [5,7) join+exit.
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4:\n%s", len(g.Blocks), g)
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want 2", entry.Succs)
	}
	join := g.BlockOf(5)
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v, want 2", join.Preds)
	}
	if !g.Dominates(0, join.ID) {
		t.Error("entry must dominate join")
	}
	if g.Dominates(g.blockOf[2], join.ID) {
		t.Error("then-arm must not dominate join")
	}
	if g.Idom(join.ID) != 0 {
		t.Errorf("idom(join) = %d, want 0", g.Idom(join.ID))
	}
	if len(g.Loops()) != 0 {
		t.Errorf("diamond has %d loops, want 0", len(g.Loops()))
	}
}

func TestSuperBlockSplitting(t *testing.T) {
	m, err := sass.Assemble(diamondSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Function("diamond")
	super := BuildSuperBlocks(f)
	// Super blocks end only at branches/exits: [0,2) [2,4) [4,7)?? The
	// ELSE label at 4 and JOIN at 5 do not split; blocks end at BRA(1),
	// BRA(3), EXIT(6).
	if len(super) != 3 {
		t.Fatalf("got %d super blocks, want 3", len(super))
	}
	if super[2].Start != 4 || super[2].End != 7 {
		t.Errorf("super block 2 = [%d,%d), want [4,7)", super[2].Start, super[2].End)
	}
	// Full build splits the last super block at the JOIN target.
	g := build(t, diamondSrc, "diamond")
	if len(g.Blocks) != 4 {
		t.Errorf("split blocks = %d, want 4", len(g.Blocks))
	}
}

func TestLoopNesting(t *testing.T) {
	g := build(t, loopSrc, "loopnest")
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2:\n%s", len(loops), g)
	}
	var inner, outer *Loop
	for _, l := range loops {
		if l.Depth == 2 {
			inner = l
		} else if l.Depth == 1 {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("depths wrong: %+v", loops)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent must be the outer loop")
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Error("outer loop must have the inner loop as its only child")
	}
	// Instruction 2 (IADD R1) is in both loops; innermost must win.
	l := g.InnermostLoop(2)
	if l != inner {
		t.Errorf("InnermostLoop(2) = depth %d, want the inner loop", l.Depth)
	}
	// Instruction 5 (IADD R0) is only in the outer loop.
	if l := g.InnermostLoop(5); l != outer {
		t.Errorf("InnermostLoop(5) should be the outer loop, got %+v", l)
	}
	if !g.SameLoop(2, 3) {
		t.Error("instructions 2 and 3 share the inner loop")
	}
	if !g.SameLoop(2, 5) {
		t.Error("instructions 2 and 5 share the outer loop")
	}
}

func TestShortestDist(t *testing.T) {
	g := build(t, diamondSrc, "diamond")
	// 0:ISETP 1:BRA 2:IADD 3:BRA 4:IADD(ELSE) 5:IADD(JOIN) 6:EXIT
	cases := []struct{ i, j, want int }{
		{0, 1, 1},
		{0, 5, 3},  // ISETP -> BRA -> ELSE IADD -> JOIN (shortest arm)
		{2, 5, 2},  // IADD -> BRA -> JOIN
		{5, 0, -1}, // no path backwards
		{0, 6, 4},
	}
	for _, tc := range cases {
		if got := g.ShortestDist(tc.i, tc.j); got != tc.want {
			t.Errorf("ShortestDist(%d,%d) = %d, want %d", tc.i, tc.j, got, tc.want)
		}
	}
}

func TestLongestDist(t *testing.T) {
	g := build(t, diamondSrc, "diamond")
	// Longest path 0 -> 5 goes through the then-arm: 1(BRA) 2(IADD)
	// 3(BRA) 5(JOIN) = 4... then-arm blocks: entry[0,2) then[2,4)
	// join[5..]: from 0: tail=1 (BRA), then block adds 2, join reaches
	// j at offset 0: +1 => 4.
	if got := g.LongestDist(0, 5); got != 4 {
		t.Errorf("LongestDist(0,5) = %d, want 4", got)
	}
	if got := g.ShortestDist(0, 5); got != 3 {
		t.Errorf("ShortestDist(0,5) = %d, want 3", got)
	}
	// Same-block straight line.
	if got := g.LongestDist(5, 6); got != 1 {
		t.Errorf("LongestDist(5,6) = %d, want 1", got)
	}
	if got := g.LongestDist(5, 2); got != -1 {
		t.Errorf("LongestDist(5,2) = %d, want -1", got)
	}
}

func TestLoopCarriedDistance(t *testing.T) {
	g := build(t, loopSrc, "loopnest")
	// 2:IADD R1 (inner body) ... 4:@P0 BRA INNER. Loop-carried distance
	// from the ISETP at 3 back to IADD at 2: 3->4(BRA)->2: 2 steps.
	if got := g.ShortestDist(3, 2); got != 2 {
		t.Errorf("loop-carried ShortestDist(3,2) = %d, want 2", got)
	}
	// Self-cycle through the inner loop: 2 -> 3 -> 4 -> 2.
	if got := g.ShortestDist(2, 2); got != 3 {
		t.Errorf("ShortestDist(2,2) = %d, want 3", got)
	}
}

func TestOnEveryPath(t *testing.T) {
	g := build(t, diamondSrc, "diamond")
	// From entry ISETP(0) to JOIN(5): neither arm instruction is on
	// every path.
	if g.OnEveryPath(0, 2, 5) {
		t.Error("then-arm IADD is not on every path")
	}
	if g.OnEveryPath(0, 4, 5) {
		t.Error("else-arm IADD is not on every path")
	}
	// The BRA at 1 is on every path from 0 to 5.
	if !g.OnEveryPath(0, 1, 5) {
		t.Error("the conditional BRA is on every path 0->5")
	}
	// JOIN IADD(5) is on every path from 0 to EXIT(6).
	if !g.OnEveryPath(0, 5, 6) {
		t.Error("join instruction is on every path to EXIT")
	}
	if g.OnEveryPath(5, 2, 0) {
		t.Error("unreachable endpoints must report false")
	}
}

func TestIrreducibleAndUnreachable(t *testing.T) {
	// A function with an unreachable block after an unconditional
	// branch must still build.
	src := `
.func dead global
	BRA END {S:5}
	IADD R0, R0, 0x1 {S:4}
END:
	EXIT
`
	g := build(t, src, "dead")
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(g.Blocks))
	}
	if g.ShortestDist(0, 1) != -1 {
		t.Error("dead block should be unreachable from entry")
	}
	if g.ShortestDist(0, 2) != 1 {
		t.Error("END reachable in one step")
	}
}
