package slc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func uniformCosts(c int) *[compress.SymbolsPerBlock]int {
	var costs [compress.SymbolsPerBlock]int
	for i := range costs {
		costs[i] = c
	}
	return &costs
}

// newTree builds the adder tree on the heap.
func newTree(costs *[compress.SymbolsPerBlock]int, opt bool) *Tree {
	t := new(Tree)
	t.Reset(costs, opt)
	return t
}

// nodeSums returns the sums of one tree level.
func (t *Tree) nodeSums(level int) []int {
	off, n := levelSpan(level)
	return t.sums[off : off+n]
}

func TestTreeRootSum(t *testing.T) {
	costs := uniformCosts(8)
	tree := newTree(costs, false)
	if got := tree.sums[treeSums-1]; got != 64*8 {
		t.Errorf("root sum = %d, want 512", got)
	}
}

func TestTreeLevelSums(t *testing.T) {
	var costs [compress.SymbolsPerBlock]int
	for i := range costs {
		costs[i] = i
	}
	tree := newTree(&costs, false)
	if got := tree.nodeSums(1)[0]; got != 0+1 {
		t.Errorf("level1[0] = %d, want 1", got)
	}
	if got := tree.nodeSums(2)[3]; got != 12+13+14+15 {
		t.Errorf("level2[3] = %d, want 54", got)
	}
	if got := tree.nodeSums(6)[0]; got != 64*63/2 {
		t.Errorf("root = %d, want 2016", got)
	}
}

func TestSelectFewestSymbols(t *testing.T) {
	// Uniform cost 8: need 20 cannot be covered by 1 or 2 symbols (8, 16)
	// but a 4-symbol node (32) covers it.
	tree := newTree(uniformCosts(8), false)
	node, ok := tree.Select(20, MaxApproxSymbols)
	if !ok {
		t.Fatal("no node selected")
	}
	if node.Count != 4 || node.Start != 0 || node.Sum != 32 {
		t.Errorf("node = %+v, want 4 symbols at 0 with sum 32", node)
	}
}

func TestSelectPriorityEncoderFirstHit(t *testing.T) {
	// Level 0: only symbol 37 has a large cost; the first level-0 hit is 37.
	costs := uniformCosts(2)
	costs[37] = 30
	tree := newTree(costs, false)
	node, ok := tree.Select(25, MaxApproxSymbols)
	if !ok || node.Count != 1 || node.Start != 37 {
		t.Errorf("node = %+v ok=%v, want single symbol 37", node, ok)
	}
}

func TestSelectRespectsMaxSymbols(t *testing.T) {
	// Uniform cost 1: need 40 requires ≥ 40 symbols, beyond the 16-symbol cap.
	tree := newTree(uniformCosts(1), false)
	if _, ok := tree.Select(40, MaxApproxSymbols); ok {
		t.Error("selected a node beyond the symbol cap")
	}
	// With cost 4, 16 symbols sum to 64 ≥ 40.
	tree = newTree(uniformCosts(4), false)
	node, ok := tree.Select(40, MaxApproxSymbols)
	if !ok || node.Count != 16 {
		t.Errorf("node = %+v ok=%v, want a 16-symbol node", node, ok)
	}
}

func TestOptExtraNodesReduceOvershoot(t *testing.T) {
	// Uniform cost 8 and need 33: plain TSLC jumps from 4-symbol sums (32,
	// miss) to 8-symbol sums (64, overshoot). The OPT 6-symbol node (48)
	// covers it with less approximation.
	plain := newTree(uniformCosts(8), false)
	n1, ok := plain.Select(33, MaxApproxSymbols)
	if !ok || n1.Count != 8 {
		t.Fatalf("plain tree: node = %+v ok=%v, want 8 symbols", n1, ok)
	}
	opt := newTree(uniformCosts(8), true)
	n2, ok := opt.Select(33, MaxApproxSymbols)
	if !ok || n2.Count != 6 {
		t.Fatalf("opt tree: node = %+v ok=%v, want 6 symbols", n2, ok)
	}
	if n2.Sum < 33 {
		t.Errorf("opt node sum %d below need", n2.Sum)
	}
}

func TestOptExtraNodeCounts(t *testing.T) {
	// Paper §III-F: 8 extra nodes at the 16-node level, 4 at the 8-node level.
	tree := newTree(uniformCosts(1), true)
	var six, twelve int
	for _, n := range tree.extra[:tree.nextra] {
		switch n.Count {
		case 6:
			six++
		case 12:
			twelve++
		default:
			t.Errorf("unexpected extra node count %d", n.Count)
		}
	}
	if six != 8 || twelve != 4 {
		t.Errorf("extra nodes = %d six-symbol + %d twelve-symbol, want 8 + 4", six, twelve)
	}
}

func TestExtraNodeSumsMatchSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var costs [compress.SymbolsPerBlock]int
	for i := range costs {
		costs[i] = rng.Intn(30) + 1
	}
	tree := newTree(&costs, true)
	for _, n := range tree.extra[:tree.nextra] {
		sum := 0
		for i := n.Start; i < n.Start+n.Count; i++ {
			sum += costs[i]
		}
		if sum != n.Sum {
			t.Errorf("extra node %+v: span sums to %d", n, sum)
		}
	}
}

func TestSelectInvariants(t *testing.T) {
	f := func(seed int64, needRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var costs [compress.SymbolsPerBlock]int
		for i := range costs {
			costs[i] = rng.Intn(31) + 1
		}
		need := int(needRaw)%256 + 1
		for _, opt := range []bool{false, true} {
			tree := newTree(&costs, opt)
			node, ok := tree.Select(need, MaxApproxSymbols)
			if !ok {
				continue
			}
			if node.Sum < need || node.Count > MaxApproxSymbols {
				return false
			}
			if node.Start < 0 || node.Start+node.Count > compress.SymbolsPerBlock {
				return false
			}
			// Node must not straddle a 16-symbol way.
			if node.Start/16 != (node.Start+node.Count-1)/16 {
				return false
			}
			// Sum must equal the span.
			sum := 0
			for i := node.Start; i < node.Start+node.Count; i++ {
				sum += costs[i]
			}
			if sum != node.Sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
