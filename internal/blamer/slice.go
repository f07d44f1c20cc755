package blamer

import (
	"gpa/internal/sass"
)

// candidate is one immediate dependency source discovered by backward
// slicing.
type candidate struct {
	def int
	reg sass.Reg
	// war marks dependencies mediated by a read barrier (write-after-
	// read hazards).
	war bool
}

// maxSliceSteps caps the backward-slicing walk per use.
const maxSliceSteps = 4096

// slice finds the immediate dependency sources of instruction j: for
// every register j reads (regular registers, the guard predicate
// register, and the virtual barrier registers named by the wait mask),
// walk the control flow graph backwards collecting defs. The walk past a
// def continues while the defs' predicates seen on the path do not yet
// cover j's own predicate (Section 4, "Predicated instructions"):
// a def guarded by @P0 may not execute, so an earlier def under @!P0
// (or unconditional) can still be the source.
func (b *blamer) slice(j int) []candidate {
	use := &b.fs.Fn.Instrs[j]
	var out []candidate
	budget := maxSliceSteps
	for _, r := range use.Uses() {
		if r.IsZero() || r.Class == sass.RegSpecial {
			continue
		}
		out = b.sliceReg(out, j, r, use.Pred, &budget)
	}
	return out
}

// pathState is a DFS node: an instruction plus the predicate coverage
// accumulated from defs already passed on this path.
type pathState struct {
	instr int
	preds sass.PredicateSet
}

// sliceReg walks backwards from j looking for defs of r.
func (b *blamer) sliceReg(out []candidate, j int, r sass.Reg, usePred sass.Predicate, budget *int) []candidate {
	visited := map[pathState]bool{}
	var stack []pathState
	push := func(ps pathState) {
		if !visited[ps] {
			visited[ps] = true
			stack = append(stack, ps)
		}
	}
	for _, p := range b.preds[j] {
		push(pathState{instr: p})
	}
	for len(stack) > 0 && *budget > 0 {
		*budget--
		ps := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := &b.fs.Fn.Instrs[ps.instr]
		if defines(in, r) {
			war := r.Class == sass.RegBarrier &&
				in.Ctrl.ReadBar != sass.NoBarrier &&
				int(in.Ctrl.ReadBar) == int(r.Index) &&
				(in.Ctrl.WriteBar == sass.NoBarrier || int(in.Ctrl.WriteBar) != int(r.Index))
			out = append(out, candidate{def: ps.instr, reg: r, war: war})
			next := ps.preds
			next.Add(in.Pred)
			if next.Contains(usePred) {
				// The defs on this path now cover every condition under
				// which the use executes: stop here.
				continue
			}
			ps.preds = next
		}
		for _, p := range b.preds[ps.instr] {
			push(pathState{instr: p, preds: ps.preds})
		}
	}
	return out
}

func defines(in *sass.Instruction, r sass.Reg) bool {
	for _, d := range in.Defs() {
		if d == r {
			return true
		}
	}
	return false
}

// sliceSync finds the synchronization instructions responsible for sync
// stalls at j: the nearest BAR/MEMBAR/DEPBAR on each backward path.
func (b *blamer) sliceSync(j int) []candidate {
	var out []candidate
	budget := maxSliceSteps
	visited := make([]bool, len(b.fs.Fn.Instrs))
	var stack []int
	push := func(i int) {
		if !visited[i] {
			visited[i] = true
			stack = append(stack, i)
		}
	}
	for _, p := range b.preds[j] {
		push(p)
	}
	for len(stack) > 0 && budget > 0 {
		budget--
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := &b.fs.Fn.Instrs[i]
		if in.Opcode.IsSync() {
			out = append(out, candidate{def: i, reg: sass.Reg{}})
			continue // nearest barrier per path
		}
		for _, p := range b.preds[i] {
			push(p)
		}
	}
	return out
}
