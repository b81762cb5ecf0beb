package slc

// The TSLC selection tree (paper Figure 5). A parallel adder tree sums the 64
// per-symbol code lengths pairwise; the root is the block's payload size.
// When the lossy mode is selected, every intermediate sum is compared against
// the extra bits in parallel; per level a priority encoder picks the first
// sub-block whose sum covers the extra bits, and the lowest level with a hit
// wins, because that level approximates the fewest symbols.

import "repro/internal/compress"

// Node is one adder-tree node: an aligned span of symbols and the summed
// code length of that span.
type Node struct {
	Start int // first symbol index
	Count int // number of symbols covered
	Sum   int // total code length in bits
	Level int // tree level (0 = individual code lengths)
}

// Number of tree levels for 64 symbols: level 0 (leaves) .. level 6 (root).
const treeLevels = 7

// treeSums is the total node count over all levels (64+32+...+1).
const treeSums = 2*compress.SymbolsPerBlock - 1

// maxExtraNodes bounds the TSLC-OPT intermediate nodes (8 + 4).
const maxExtraNodes = 12

// Tree is the TSLC adder tree over one block's symbol costs. All backing
// storage is fixed-size, so a `var tree Tree` on the stack plus Reset builds
// the tree with no heap allocation — the mode decision runs once per synced
// block, on the pipeline's hot path.
type Tree struct {
	sums   [treeSums]int       // all levels, packed level 0 first
	extra  [maxExtraNodes]Node // TSLC-OPT intermediate nodes
	nextra int
}

// levelSpan returns the offset and length of one level inside sums.
func levelSpan(l int) (off, n int) {
	n = compress.SymbolsPerBlock >> uint(l)
	return 2*compress.SymbolsPerBlock - 2*n, n
}

// Reset rebuilds the tree in place from per-symbol costs. With opt, the
// TSLC-OPT extra nodes are added: the paper adds 8 nodes at the 16-node
// level and 4 at the 8-node level to break the 2× jumps between sums
// (§III-F); we realise them as intermediate spans of 6 and 12 symbols.
func (t *Tree) Reset(costs *[compress.SymbolsPerBlock]int, opt bool) {
	copy(t.sums[:compress.SymbolsPerBlock], costs[:])
	for l := 1; l < treeLevels; l++ {
		po, pn := levelSpan(l - 1)
		co, _ := levelSpan(l)
		for i := 0; i < pn/2; i++ {
			t.sums[co+i] = t.sums[po+2*i] + t.sums[po+2*i+1]
		}
	}
	t.nextra = 0
	if opt {
		o2, _ := levelSpan(2) // 4-symbol sums
		o1, _ := levelSpan(1) // 2-symbol sums
		o3, _ := levelSpan(3) // 8-symbol sums
		// 8 extra 6-symbol nodes between the 4- and 8-symbol levels
		// (one per pair of adjacent 4-symbol nodes)...
		for i := 0; i < 8; i++ {
			t.extra[t.nextra] = Node{
				Start: i * 8,
				Count: 6,
				Sum:   t.sums[o2+2*i] + t.sums[o1+4*i+2],
				Level: 2,
			}
			t.nextra++
		}
		// ...and 4 extra 12-symbol nodes between the 8- and 16-symbol levels.
		for i := 0; i < 4; i++ {
			t.extra[t.nextra] = Node{
				Start: i * 16,
				Count: 12,
				Sum:   t.sums[o3+2*i] + t.sums[o2+4*i+2],
				Level: 3,
			}
			t.nextra++
		}
	}
}

// Select returns the sub-block to approximate: among all nodes with
// Sum ≥ need and Count ≤ maxSyms, the one covering the fewest symbols
// (lowest level), breaking ties on the lowest start index — the behaviour of
// the per-level priority encoders plus the lowest-level mux of Figure 5.
// ok is false when no node qualifies.
func (t *Tree) Select(need, maxSyms int) (Node, bool) {
	best := Node{Count: 1 << 30}
	found := false
	consider := func(n Node) {
		if n.Sum < need || n.Count > maxSyms {
			return
		}
		if !found || n.Count < best.Count || (n.Count == best.Count && n.Start < best.Start) {
			best = n
			found = true
		}
	}
	for l := 0; l < treeLevels; l++ {
		count := 1 << uint(l)
		if count > maxSyms {
			break
		}
		off, n := levelSpan(l)
		for i := 0; i < n; i++ {
			if sum := t.sums[off+i]; sum >= need {
				// Priority encoder: only the first hit per level matters.
				consider(Node{Start: i * count, Count: count, Sum: sum, Level: l})
				break
			}
		}
	}
	for i := 0; i < t.nextra; i++ {
		consider(t.extra[i])
	}
	return best, found
}
