package cfg

// Instruction-level path queries. The blamer's pruning and apportioning
// rules reason about paths between a def instruction i and a use
// instruction j in the control flow graph:
//
//   - latency-based pruning removes the edge when the number of
//     instructions on EVERY path from i to j exceeds i's latency, i.e.
//     when the shortest path is longer than the latency;
//   - dominator-based pruning asks whether an intervening instruction k
//     lies on every path from i to j;
//   - apportioning weighs each dependency source by its LONGEST path to
//     the use ("If an instruction i has multiple paths to instruction j
//     ... we use the longest one").
//
// All three operate on the instruction-level successor relation: a
// non-control instruction flows to the next instruction (predication
// does not divert control), a predicated branch flows to both its target
// and the fall-through, and EXIT/RET end the walk.

// InstrSuccs appends the instruction-level successors of instruction i
// to dst and returns it.
func (g *Graph) InstrSuccs(dst []int, i int) []int {
	in := &g.Fn.Instrs[i]
	if in.IsExit() {
		return dst
	}
	b := g.BlockOf(i)
	if i+1 < b.End {
		return append(dst, i+1)
	}
	// Last instruction of its block: follow block edges.
	for _, s := range b.Succs {
		dst = append(dst, g.Blocks[s].Start)
	}
	return dst
}

// ShortestDist returns the minimum number of instruction issue slots on
// a path from i to j (counting j, not i): adjacent instructions have
// distance 1. It returns -1 when j is unreachable from i. i == j
// returns the shortest cycle length through i (relevant for loop-carried
// self dependencies), or -1 if i is not in a cycle.
func (g *Graph) ShortestDist(i, j int) int {
	n := g.NumInstrs()
	dist := make([]int, n)
	for k := range dist {
		dist[k] = -1
	}
	queue := make([]int, 0, n)
	var scratch []int
	for _, s := range g.InstrSuccs(scratch, i) {
		if s == j {
			return 1
		}
		if dist[s] == -1 {
			dist[s] = 1
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		scratch = g.InstrSuccs(scratch[:0], cur)
		for _, s := range scratch {
			if s == j {
				return dist[cur] + 1
			}
			if dist[s] == -1 {
				dist[s] = dist[cur] + 1
				queue = append(queue, s)
			}
		}
	}
	return -1
}

// LongestDist returns the maximum number of instruction issue slots on a
// path from i to j that visits no basic block twice (a block-simple
// path; unrestricted longest paths are unbounded in cyclic graphs). It
// returns -1 when j is unreachable from i.
func (g *Graph) LongestDist(i, j int) int {
	bi, bj := g.blockOf[i], g.blockOf[j]
	if bi == bj && i < j {
		return j - i
	}
	// DFS over blocks with a visited set. Kernels are small (tens of
	// blocks), so the exponential worst case is not a concern; a depth
	// cap guards pathological inputs.
	visited := make([]bool, len(g.Blocks))
	const maxDepth = 64
	var dfs func(b, depth int, acc int) int
	dfs = func(b, depth, acc int) int {
		if depth > maxDepth {
			return -1
		}
		best := -1
		for _, s := range g.Blocks[b].Succs {
			sb := g.Blocks[s]
			if s == bj {
				// Instructions from block start to j inclusive.
				cand := acc + (j - sb.Start) + 1
				if cand > best {
					best = cand
				}
				// Do not also traverse through bj; paths revisiting j's
				// block would not be block-simple.
				continue
			}
			if visited[s] {
				continue
			}
			visited[s] = true
			cand := dfs(s, depth+1, acc+sb.Len())
			visited[s] = false
			if cand > best {
				best = cand
			}
		}
		return best
	}
	// Instructions remaining in i's block after i.
	b := g.Blocks[bi]
	tail := b.End - i - 1
	visited[bi] = true
	return dfs(bi, 0, tail)
}

// OnEveryPath reports whether instruction k lies on every path from
// instruction i to instruction j. It returns false when j is not
// reachable from i at all. k must differ from both endpoints.
func (g *Graph) OnEveryPath(i, k, j int) bool {
	if k == i || k == j {
		return false
	}
	reach := g.reaches(i, j, -1)
	if !reach {
		return false
	}
	return !g.reaches(i, j, k)
}

// reaches reports whether j is reachable from i (following instruction
// successors, not counting i itself) while never stepping on instruction
// "avoid" (pass -1 to disable).
func (g *Graph) reaches(i, j, avoid int) bool {
	n := g.NumInstrs()
	seen := make([]bool, n)
	var scratch []int
	queue := make([]int, 0, n)
	for _, s := range g.InstrSuccs(scratch, i) {
		if s == avoid {
			continue
		}
		if s == j {
			return true
		}
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		scratch = g.InstrSuccs(scratch[:0], cur)
		for _, s := range scratch {
			if s == avoid {
				continue
			}
			if s == j {
				return true
			}
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}
