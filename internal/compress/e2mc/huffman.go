package e2mc

import (
	"fmt"
	"sort"
)

// lengthLimitedCodeLengths computes optimal prefix-code lengths for the given
// weights with no code longer than maxLen bits, using the boundary
// package-merge algorithm (Larmore & Hirschberg, 1990). It returns one length
// per weight; weights of zero are treated as one.
//
// E2MC bounds its codeword length so that per-symbol costs stay small enough
// for the compressed-size adder (and, in SLC, for the TSLC tree sums); the
// paper's configuration fits every per-symbol cost in a few bits.
func lengthLimitedCodeLengths(weights []uint64, maxLen int) ([]uint8, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("e2mc: no symbols")
	}
	if n == 1 {
		return []uint8{1}, nil
	}
	if maxLen < 1 || n > 1<<uint(maxLen) {
		return nil, fmt.Errorf("e2mc: %d symbols do not fit in %d-bit codes", n, maxLen)
	}

	type node struct {
		weight uint64
		item   int32 // leaf index, or -1 for a package
		a, b   *node
	}

	// Leaves sorted by weight ascending (stable on index for determinism).
	leaves := make([]*node, n)
	for i := range leaves {
		w := weights[i]
		if w == 0 {
			w = 1
		}
		leaves[i] = &node{weight: w, item: int32(i)}
	}
	sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].weight < leaves[j].weight })

	// lists[l] is the merged list at level l; level 0 is the deepest
	// (longest codes). Build maxLen levels.
	prev := leaves
	for level := 1; level < maxLen; level++ {
		var packages []*node
		for i := 0; i+1 < len(prev); i += 2 {
			packages = append(packages, &node{
				weight: prev[i].weight + prev[i+1].weight,
				item:   -1,
				a:      prev[i],
				b:      prev[i+1],
			})
		}
		// Merge leaves and packages by weight.
		merged := make([]*node, 0, n+len(packages))
		li, pi := 0, 0
		for li < n || pi < len(packages) {
			if pi >= len(packages) || (li < n && leaves[li].weight <= packages[pi].weight) {
				merged = append(merged, leaves[li])
				li++
			} else {
				merged = append(merged, packages[pi])
				pi++
			}
		}
		prev = merged
	}

	// The optimal solution takes the first 2n-2 entries of the final list;
	// each leaf's code length is its number of occurrences. Packages nest at
	// most maxLen deep, so an explicit stack bounds the walk without
	// recursion.
	lengths := make([]uint8, n)
	stack := make([]*node, 0, maxLen+2)
	for _, top := range prev[:2*n-2] {
		stack = append(stack[:0], top)
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nd.item >= 0 {
				lengths[nd.item]++
				continue
			}
			stack = append(stack, nd.b, nd.a)
		}
	}
	for i, l := range lengths {
		if l == 0 || int(l) > maxLen {
			return nil, fmt.Errorf("e2mc: package-merge produced length %d for symbol %d", l, i)
		}
	}
	return lengths, nil
}

// canonical holds a canonical Huffman code: deterministic codeword assignment
// from code lengths alone, enabling compact decode tables.
type canonical struct {
	maxLen int
	codes  []uint32 // per item
	lens   []uint8  // per item
	count  []int    // count[l] = number of codes of length l
}

// newCanonical assigns canonical codewords given per-item lengths.
func newCanonical(lens []uint8, maxLen int) (*canonical, error) {
	c := &canonical{
		maxLen: maxLen,
		lens:   lens,
		codes:  make([]uint32, len(lens)),
		count:  make([]int, maxLen+1),
	}
	for _, l := range lens {
		c.count[l]++
	}
	// Kraft check.
	kraft := uint64(0)
	for l := 1; l <= maxLen; l++ {
		kraft += uint64(c.count[l]) << uint(maxLen-l)
	}
	if kraft > 1<<uint(maxLen) {
		return nil, fmt.Errorf("e2mc: code lengths violate Kraft inequality (%d > %d)", kraft, uint64(1)<<uint(maxLen))
	}
	// Canonical order: by (length, item index).
	type li struct {
		item int32
		len  uint8
	}
	items := make([]li, len(lens))
	for i, l := range lens {
		items[i] = li{int32(i), l}
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].len != items[b].len {
			return items[a].len < items[b].len
		}
		return items[a].item < items[b].item
	})
	code := uint32(0)
	prevLen := uint8(0)
	for _, it := range items {
		if it.len > prevLen {
			code <<= uint(it.len - prevLen)
			prevLen = it.len
		}
		c.codes[it.item] = code
		code++
	}
	return c, nil
}
