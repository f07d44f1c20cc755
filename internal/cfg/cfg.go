// Package cfg builds control flow graphs over SASS functions and derives
// the structural facts GPA's analyses consume: basic blocks, dominators,
// natural loop nests, and instruction-level path queries (used by the
// blamer's dominator- and latency-based pruning rules, Section 4.3, and
// by its stall apportioning heuristics, Section 4.4).
//
// In the Figure 2 pipeline this is the static analyzer's first half:
// input is one *sass.Function, output a *CFG whose loop nests feed both
// the structure package (program structure file) and the advisor's
// Equation 5 scope analysis. Mirroring the paper's static analyzer,
// construction happens in two steps: a disassembler-style pass first
// yields "super blocks" (runs of instructions terminated only by
// control transfers, as nvdisasm emits), which are then split at branch
// targets into proper basic blocks.
package cfg

import (
	"fmt"
	"sort"

	"gpa/internal/sass"
)

// Block is a basic block: instructions [Start, End) of the function.
type Block struct {
	ID    int
	Start int // first instruction index
	End   int // one past last instruction index
	Succs []int
	Preds []int
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Graph is the control flow graph of one function.
type Graph struct {
	Fn     *sass.Function
	Blocks []*Block
	// blockOf[i] is the block ID containing instruction i.
	blockOf []int
	// idom[b] is the immediate dominator of block b (-1 for entry).
	idom []int
	// loops, outermost first within each nest.
	loops []*Loop
}

// BuildSuperBlocks performs the first construction step: blocks end only
// at control transfers (branch, exit, return), not at branch targets, so
// a block may be entered mid-way — the "super blocks" shape that raw
// nvdisasm control flow output has.
func BuildSuperBlocks(f *sass.Function) []*Block {
	var blocks []*Block
	n := len(f.Instrs)
	start := 0
	for i := 0; i < n; i++ {
		in := &f.Instrs[i]
		ends := in.IsExit() || isBranch(in.Opcode)
		if ends || i == n-1 {
			blocks = append(blocks, &Block{ID: len(blocks), Start: start, End: i + 1})
			start = i + 1
		}
	}
	return blocks
}

func isBranch(op sass.Opcode) bool {
	switch op {
	case sass.OpBRA, sass.OpBRX, sass.OpJMP:
		return true
	}
	return false
}

// Build constructs the basic-block CFG for f: super blocks split at
// branch targets, edges wired, dominators and loops computed.
func Build(f *sass.Function) (*Graph, error) {
	n := len(f.Instrs)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty function %q", f.Name)
	}
	// Leaders: block starts. Start from super blocks, then split at
	// branch targets.
	leader := make([]bool, n)
	leader[0] = true
	for _, b := range BuildSuperBlocks(f) {
		leader[b.Start] = true
	}
	for i := 0; i < n; i++ {
		in := &f.Instrs[i]
		if tgt, ok := in.BranchTarget(); ok && in.Opcode != sass.OpCAL {
			idx := int(tgt.PC) / sass.InstrBytes
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("cfg: %s+0x%x: branch target 0x%x out of range",
					f.Name, in.PC, tgt.PC)
			}
			leader[idx] = true
		}
	}
	g := &Graph{Fn: f, blockOf: make([]int, n)}
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			b := &Block{ID: len(g.Blocks), Start: start, End: i}
			g.Blocks = append(g.Blocks, b)
			for j := start; j < i; j++ {
				g.blockOf[j] = b.ID
			}
			start = i
		}
	}
	// Edges.
	for _, b := range g.Blocks {
		last := &f.Instrs[b.End-1]
		addEdge := func(to int) {
			b.Succs = append(b.Succs, to)
			g.Blocks[to].Preds = append(g.Blocks[to].Preds, b.ID)
		}
		switch {
		case last.IsExit():
			// no successors
		case isBranch(last.Opcode):
			if tgt, ok := last.BranchTarget(); ok {
				addEdge(g.blockOf[int(tgt.PC)/sass.InstrBytes])
			}
			// Predicated branches fall through as well.
			if !last.Unconditional() && b.End < n {
				addEdge(g.blockOf[b.End])
			}
		default:
			if b.End < n {
				addEdge(g.blockOf[b.End])
			}
		}
	}
	g.computeDominators()
	g.findLoops()
	return g, nil
}

// BlockOf returns the block containing instruction index i.
func (g *Graph) BlockOf(i int) *Block { return g.Blocks[g.blockOf[i]] }

// NumInstrs returns the instruction count of the underlying function.
func (g *Graph) NumInstrs() int { return len(g.blockOf) }

// computeDominators runs the iterative dataflow algorithm (Cooper,
// Harvey & Kennedy) over a reverse postorder.
func (g *Graph) computeDominators() {
	nb := len(g.Blocks)
	rpo := g.reversePostorder()
	rpoIndex := make([]int, nb)
	for i, b := range rpo {
		rpoIndex[b] = i
	}
	g.idom = make([]int, nb)
	for i := range g.idom {
		g.idom[i] = -1
	}
	g.idom[0] = 0
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if g.idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
					continue
				}
				// intersect
				x, y := p, newIdom
				for x != y {
					for rpoIndex[x] > rpoIndex[y] {
						x = g.idom[x]
					}
					for rpoIndex[y] > rpoIndex[x] {
						y = g.idom[y]
					}
				}
				newIdom = x
			}
			if newIdom != -1 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
	g.idom[0] = -1
}

func (g *Graph) reversePostorder() []int {
	visited := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominates reports whether block a dominates block b.
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = g.idom[b]
	}
	return false
}

// Idom returns the immediate dominator of block b (-1 for the entry or
// unreachable blocks).
func (g *Graph) Idom(b int) int { return g.idom[b] }

// String renders a compact textual form for debugging.
func (g *Graph) String() string {
	s := ""
	for _, b := range g.Blocks {
		s += fmt.Sprintf("B%d [%d,%d) ->%v\n", b.ID, b.Start, b.End, b.Succs)
	}
	return s
}

// Loop is a natural loop: a header block plus its body.
type Loop struct {
	// Head is the header block ID.
	Head int
	// Blocks is the set of member block IDs (including the header).
	Blocks map[int]bool
	Parent *Loop
	// Children are the immediately nested loops.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int
	// HeadLine is the source line of the loop header's first
	// instruction, for reporting.
	HeadLine sass.LineInfo
}

// Contains reports whether instruction index i belongs to the loop.
func (l *Loop) Contains(g *Graph, i int) bool {
	return l.Blocks[g.blockOf[i]]
}

// findLoops detects back edges (tail -> header where the header
// dominates the tail), builds natural loops, merges loops sharing a
// header, and nests them.
func (g *Graph) findLoops() {
	byHead := map[int]*Loop{}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !g.Dominates(s, b.ID) {
				continue
			}
			l := byHead[s]
			if l == nil {
				l = &Loop{Head: s, Blocks: map[int]bool{s: true}}
				byHead[s] = l
			}
			// Natural loop: all nodes reaching the tail without
			// passing the header.
			stack := []int{b.ID}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range g.Blocks[x].Preds {
					stack = append(stack, p)
				}
			}
		}
	}
	if len(byHead) == 0 {
		return
	}
	var loops []*Loop
	for _, l := range byHead {
		l.HeadLine = g.Fn.Lines[g.Blocks[l.Head].Start]
		loops = append(loops, l)
	}
	// Smaller loops nest inside larger ones.
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Blocks) != len(loops[j].Blocks) {
			return len(loops[i].Blocks) < len(loops[j].Blocks)
		}
		return loops[i].Head < loops[j].Head
	})
	for i, inner := range loops {
		for _, outer := range loops[i+1:] {
			if outer.Blocks[inner.Head] && containsAll(outer.Blocks, inner.Blocks) {
				inner.Parent = outer
				outer.Children = append(outer.Children, inner)
				break
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Head < loops[j].Head })
	g.loops = loops
}

func containsAll(outer, inner map[int]bool) bool {
	for b := range inner {
		if !outer[b] {
			return false
		}
	}
	return true
}

// Loops returns all natural loops of the function, ordered by header.
func (g *Graph) Loops() []*Loop { return g.loops }

// InnermostLoop returns the innermost loop containing instruction i, or
// nil.
func (g *Graph) InnermostLoop(i int) *Loop {
	var best *Loop
	for _, l := range g.loops {
		if l.Contains(g, i) && (best == nil || l.Depth > best.Depth) {
			best = l
		}
	}
	return best
}

// SameLoop reports whether instructions i and j share a loop (the
// innermost loop of either contains both).
func (g *Graph) SameLoop(i, j int) bool {
	li := g.InnermostLoop(i)
	if li != nil && li.Contains(g, j) {
		return true
	}
	lj := g.InnermostLoop(j)
	return lj != nil && lj.Contains(g, i)
}
